"""E-F13 — Figure 13: when to activate DBA (``act_aft_steps`` sweep).

Paper (GPT-2, 1775 total steps): activating DBA at step 0 gives the best
speedup (1.63x) but the worst perplexity (22.50 vs 21.05 without DBA);
activating very late approaches no-DBA accuracy but only 1.15x speedup;
the default 500 "strikes a balance".

Two coupled measurements:

* **accuracy side** (functional): fine-tune the decoder proxy with DBA
  activated at each sweep point; report eval perplexity.
* **speedup side** (timing): the run's average step time mixes TECO-CXL
  steps (before activation) and TECO-Reduction steps (after); speedup is
  against ZeRO-Offload.
"""

from __future__ import annotations

import os

from repro.dba import ActivationPolicy
from repro.experiments.runner import finetune, pretrained_lm
from repro.models import get_model
from repro.offload import (
    HardwareParams,
    SystemKind,
    TrainerMode,
    simulate_system,
)
from repro.utils.tables import format_table

__all__ = ["run_fig13", "render_fig13", "mixed_speedup"]


def mixed_speedup(
    act_aft_steps: int,
    total_steps: int,
    batch: int = 4,
    model: str = "gpt2",
    hw: HardwareParams | None = None,
) -> float:
    """Whole-run speedup when DBA activates at ``act_aft_steps``."""
    if not 0 <= act_aft_steps <= total_steps:
        raise ValueError("act_aft_steps must be within the run")
    spec = get_model(model)
    hw = hw or HardwareParams.paper_default()
    base = simulate_system(SystemKind.ZERO_OFFLOAD, spec, batch, hw).total
    cxl = simulate_system(SystemKind.TECO_CXL, spec, batch, hw).total
    red = simulate_system(SystemKind.TECO_REDUCTION, spec, batch, hw).total
    mixed = act_aft_steps * cxl + (total_steps - act_aft_steps) * red
    return base * total_steps / mixed


def run_fig13(
    sweep: tuple[int, ...] = (0, 20, 40, 80, 120),
    total_steps: int = 120,
    paper_total_steps: int = 1775,
    seed: int = 0,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    profile=None,
) -> list[dict]:
    """One row per activation point: proxy perplexity + modelled speedup.

    The timing side scales each sweep point to the paper's 1775-step run
    proportionally, so speedups are comparable with Figure 13.  With
    ``checkpoint_dir`` each sweep point's fine-tuning run checkpoints to
    its own file and resumes bit-exactly if the sweep is interrupted.
    ``profile`` (a :class:`repro.obs.Profile`) records phase spans and
    payload metrics from every sweep point's fine-tuning run.
    """
    if any(not 0 <= s <= total_steps for s in sweep):
        raise ValueError("sweep points must lie within the run")
    setup = pretrained_lm(seed=seed, finetune_batches=total_steps)
    rows = []
    for act in sweep:
        ckpt = (
            None
            if checkpoint_dir is None
            else os.path.join(
                os.fspath(checkpoint_dir), f"fig13-act{act}.teco-ckpt"
            )
        )
        trainer = finetune(
            setup,
            TrainerMode.TECO_REDUCTION,
            seed=seed + 1,
            policy=ActivationPolicy(act_aft_steps=act, dirty_bytes=2),
            checkpoint_path=ckpt,
            checkpoint_every=checkpoint_every,
            profile=profile,
        )
        ppl = trainer.model.perplexity(setup.eval_batch)
        paper_act = int(act / total_steps * paper_total_steps)
        rows.append(
            {
                "act_aft_steps": act,
                "perplexity": ppl,
                "speedup": mixed_speedup(paper_act, paper_total_steps),
            }
        )
    return rows


def render_fig13(rows: list[dict]) -> str:
    """Render the measured rows as a plain-text table."""
    return format_table(
        ["act_aft_steps", "perplexity (proxy)", "speedup"],
        [
            (r["act_aft_steps"], f"{r['perplexity']:.3f}", f"{r['speedup']:.2f}x")
            for r in rows
        ],
        title=(
            "Figure 13 — DBA activation sweep "
            "(paper: speedup 1.63x..1.15x, perplexity 22.50..21.21)"
        ),
    )


# --- registry ------------------------------------------------------------

from repro.experiments.registry import register, renderer


@register(
    "fig13",
    "Figure 13 — DBA activation sweep",
    tags=("figure", "functional", "timing"),
)
def _fig13_experiment(
    ctx, sweep=(0, 20, 40, 80, 120), total_steps=120, paper_total_steps=1775
):
    return run_fig13(
        sweep=tuple(sweep),
        total_steps=total_steps,
        paper_total_steps=paper_total_steps,
        seed=ctx.seed,
        checkpoint_dir=ctx.checkpoint_dir,
        profile=ctx.profile,
    )


@renderer("fig13")
def _fig13_render(result):
    return render_fig13(result.rows)


@register(
    "fig13_full",
    "Figure 13 at full paper scale (1775-step activation sweep)",
    tags=("figure", "functional", "timing", "full"),
)
def _fig13_full_experiment(
    ctx, sweep=(0, 100, 500, 1000, 1775), total_steps=1775, paper_total_steps=1775
):
    return _fig13_experiment(
        ctx,
        sweep=sweep,
        total_steps=total_steps,
        paper_total_steps=paper_total_steps,
    )


renderer("fig13_full")(_fig13_render)
