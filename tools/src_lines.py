"""Size of ``src/`` (the number ROADMAP tracks): physical and code lines per package.

A code line carries a token that is not a comment, a blank or a docstring.
Run from the root of a checkout: ``python tools/src_lines.py``; with
``--against <git-ref>`` every number is followed by its change since that ref.
"""
import io
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    lines, statement_start = set(), True
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NEWLINE:
            statement_start = True
        elif tok.type not in SKIP:
            if not (statement_start and tok.type == tokenize.STRING):  # a docstring
                lines.update(range(tok.start[0], tok.end[0] + 1))
            statement_start = False
    return len(lines)


def git(*args: str) -> str:
    return subprocess.run(("git", *args), check=True, capture_output=True, text=True).stdout


def measure(root: Path, ref: str = ""):
    """Per-package (physical, code) counters of the working tree, or of commit ``ref``."""
    if ref:
        names = git("ls-tree", "-r", "--name-only", ref, "--", str(root)).splitlines()
        sources = [(Path(n), git("show", f"{ref}:{n}")) for n in names if n.endswith(".py")]
    else:
        sources = [(path, path.read_text()) for path in sorted(root.rglob("*.py"))]
    physical, code = Counter(), Counter()
    for path, text in sources:
        package = path.relative_to(root).parts[0] if path.parent != root else "(top)"
        physical[package] += len(text.splitlines())
        code[package] += code_lines(text)
    return physical, code


def main(root: Path = Path("src/repro")) -> None:
    ref = sys.argv[2] if sys.argv[1:2] == ["--against"] else ""
    physical, code = measure(root)
    was_physical, was_code = measure(root, ref) if ref else (physical, code)
    print(f"{'package':<14}{'lines':>8}{'code':>8}" + (f"   change since {ref}" if ref else ""))
    for package in sorted(set(physical) | set(was_physical)) + [None]:  # None: the total
        lines, coded, was_lines, was_coded = (
            counter[package] if package else sum(counter.values())
            for counter in (physical, code, was_physical, was_code)
        )
        delta = f"{lines - was_lines:>+8}{coded - was_coded:>+8}" if ref else ""
        print(f"{package or 'src total':<14}{lines:>8}{coded:>8}{delta}")


if __name__ == "__main__":
    main()
