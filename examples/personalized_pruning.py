#!/usr/bin/env python
"""Class-aware personalisation study: CRISP vs. baselines across users.

Mirrors the workflow behind Fig. 7 of the paper:

* a universal model is trained over the full class set,
* several simulated users are sampled, each with their own small set of
  preferred classes,
* the universal model is personalised for each user with (a) dense
  fine-tuning, (b) CRISP hybrid-sparsity pruning and (c) class-aware channel
  pruning (the OCAP / CAP'NN-style baseline),
* accuracy, sparsity and normalized FLOPs are compared per user.

Run with:  python examples/personalized_pruning.py
"""

from copy import deepcopy

from repro.data import build_user_loaders
from repro.experiments import ExperimentScale, format_table, make_personalization_setup
from repro.pruning import CRISPConfig, CRISPPruner, flops_ratio
from repro.pruning.baselines import channel_prune, dense_finetune

SCALE = ExperimentScale(
    name="example",
    dataset_preset="synthetic-tiny",
    model_name="resnet_tiny",
    pretrain_epochs=4,
    finetune_epochs=2,
    prune_iterations=3,
)

NUM_USERS = 3
CLASSES_PER_USER = 4
# 75 % is the regime where the tiny backbones stay close to the dense upper
# bound (see EXPERIMENTS.md, E3); push it higher to watch the trade-off.
TARGET_SPARSITY = 0.75


def personalise_for_user(user_id: int):
    setup = make_personalization_setup(
        SCALE, num_user_classes=CLASSES_PER_USER, seed=0, user_id=user_id
    )
    rows = []

    def loaders():
        # Fresh per arm: a loader's shuffle advances with every epoch it
        # serves, so a shared one would hand each arm the batch order the
        # arms before it left behind.
        return build_user_loaders(setup.dataset, setup.profile, batch_size=SCALE.batch_size,
                                  samples_per_class=SCALE.samples_per_class, seed=0)

    dense_model = deepcopy(setup.model)
    dense = dense_finetune(dense_model, *loaders(), epochs=SCALE.finetune_epochs)
    rows.append({
        "user": user_id, "method": "dense", "accuracy": dense.final_accuracy,
        "sparsity": 0.0, "flops_ratio": 1.0,
    })

    crisp_model = deepcopy(setup.model)
    crisp = CRISPPruner(
        crisp_model,
        CRISPConfig(n=2, m=4, block_size=8, target_sparsity=TARGET_SPARSITY,
                    iterations=SCALE.prune_iterations, finetune_epochs=SCALE.finetune_epochs),
    ).prune(*loaders())
    rows.append({
        "user": user_id, "method": "crisp", "accuracy": crisp.final_accuracy,
        "sparsity": crisp.final_sparsity,
        "flops_ratio": flops_ratio(crisp_model, setup.dataset.image_size),
    })

    channel_model = deepcopy(setup.model)
    train_loader, val_loader = loaders()
    channel = channel_prune(
        channel_model, target_sparsity=0.6,
        train_loader=train_loader, val_loader=val_loader,
        finetune_epochs=SCALE.finetune_epochs,
    )
    rows.append({
        "user": user_id, "method": "channel", "accuracy": channel.final_accuracy,
        "sparsity": channel.achieved_sparsity, "flops_ratio": channel.flops_ratio,
    })
    return rows


def main() -> None:
    all_rows = []
    for user_id in range(NUM_USERS):
        print(f"personalising for user {user_id} ...")
        all_rows.extend(personalise_for_user(user_id))

    print("\nPer-user personalisation results "
          f"({CLASSES_PER_USER} preferred classes, CRISP target sparsity {TARGET_SPARSITY}):\n")
    print(format_table(all_rows))

    crisp_rows = [r for r in all_rows if r["method"] == "crisp"]
    dense_rows = [r for r in all_rows if r["method"] == "dense"]
    mean = lambda rows, key: sum(r[key] for r in rows) / len(rows)
    print(f"\nmean CRISP accuracy : {mean(crisp_rows, 'accuracy'):.3f} "
          f"(dense upper bound {mean(dense_rows, 'accuracy'):.3f})")
    print(f"mean CRISP FLOPs    : {mean(crisp_rows, 'flops_ratio'):.3f} of dense")


if __name__ == "__main__":
    main()
