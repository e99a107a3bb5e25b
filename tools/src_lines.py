"""Size of ``src/`` (the number ROADMAP tracks): physical and code lines per package.

A code line carries a token that is not a comment, a blank or a docstring.
Run from the root of a checkout: ``python tools/src_lines.py``.
"""
import tokenize
from collections import Counter
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines, statement_start = set(), True
    with tokenize.open(path) as handle:
        for tok in tokenize.generate_tokens(handle.readline):
            if tok.type == tokenize.NEWLINE:
                statement_start = True
            elif tok.type not in SKIP:
                if not (statement_start and tok.type == tokenize.STRING):  # a docstring
                    lines.update(range(tok.start[0], tok.end[0] + 1))
                statement_start = False
    return len(lines)


def main(root: Path = Path("src/repro")) -> None:
    physical, code = Counter(), Counter()
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parts[0] if path.parent != root else "(top)"
        physical[package] += len(path.read_text().splitlines())
        code[package] += code_lines(path)
    print(f"{'package':<14}{'lines':>8}{'code':>8}")
    for package in sorted(physical):
        print(f"{package:<14}{physical[package]:>8}{code[package]:>8}")
    print(f"{'src total':<14}{sum(physical.values()):>8}{sum(code.values()):>8}")


if __name__ == "__main__":
    main()
