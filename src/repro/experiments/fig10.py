"""E-F10 — Figure 10: training-loss curves, original vs TECO-Reduction.

Paper: with DBA active (after `act_aft_steps`), the loss curves of GPT-2
and Albert "show the similar trend and we use the same number of steps to
reach convergence".  Here: fine-tune the tiny decoder proxy from one
checkpoint under both systems and return both curves.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.dba import ActivationPolicy
from repro.experiments.runner import (
    finetune,
    pretrained_classifier,
    pretrained_lm,
)
from repro.offload import TrainerMode

__all__ = ["Fig10Result", "run_fig10", "run_fig10_albert"]


@dataclass(frozen=True)
class Fig10Result:
    """Loss curves of the baseline and TECO-Reduction runs."""
    baseline_curve: list[float]
    teco_curve: list[float]
    act_aft_steps: int

    @property
    def final_gap(self) -> float:
        """|final-loss difference| between the two systems."""
        return abs(self.baseline_curve[-1] - self.teco_curve[-1])

    def smoothed(self, curve: list[float], window: int = 8) -> list[float]:
        """Moving-average smoothing for plotting/comparison."""
        x = np.asarray(curve, dtype=np.float64)
        kernel = np.ones(window) / window
        return np.convolve(x, kernel, mode="valid").tolist()

    #: Slack on the decreasing-trend check: a smoothed curve may end up
    #: to 5% above its start and still count as non-increasing (noise at
    #: tiny proxy scale).  Applied to BOTH curves symmetrically.
    TREND_TOLERANCE = 1.05

    @property
    def same_trend(self) -> bool:
        """Both smoothed curves end below where they started (within the
        same 5% tolerance for each) and their final smoothed values are
        within 25% of the initial loss."""
        b = self.smoothed(self.baseline_curve)
        t = self.smoothed(self.teco_curve)
        tol = self.TREND_TOLERANCE
        decreasing = b[-1] <= b[0] * tol and t[-1] <= t[0] * tol
        close = abs(b[-1] - t[-1]) < 0.25 * max(b[0], 1e-9)
        return decreasing and close


def _compare(
    setup,
    act_aft_steps: int,
    seed: int,
    lr: float,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    tag: str = "fig10",
    profile=None,
) -> Fig10Result:
    def ckpt(name: str):
        if checkpoint_dir is None:
            return None
        return os.path.join(os.fspath(checkpoint_dir), f"{tag}-{name}.teco-ckpt")

    baseline = finetune(
        setup,
        TrainerMode.ZERO_OFFLOAD,
        lr=lr,
        seed=seed + 1,
        checkpoint_path=ckpt("baseline"),
        checkpoint_every=checkpoint_every,
        profile=profile,
    )
    teco = finetune(
        setup,
        TrainerMode.TECO_REDUCTION,
        lr=lr,
        seed=seed + 1,
        policy=ActivationPolicy(act_aft_steps=act_aft_steps, dirty_bytes=2),
        checkpoint_path=ckpt("teco"),
        checkpoint_every=checkpoint_every,
        profile=profile,
    )
    return Fig10Result(
        baseline_curve=baseline.loss_curve,
        teco_curve=teco.loss_curve,
        act_aft_steps=act_aft_steps,
    )


def run_fig10(
    n_steps: int = 120,
    act_aft_steps: int = 30,
    seed: int = 0,
    lr: float = 5e-4,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    profile=None,
) -> Fig10Result:
    """The GPT-2 panel: decoder-proxy fine-tuning loss curves.

    Pass ``checkpoint_dir`` (and optionally ``checkpoint_every``) to make
    the two fine-tuning runs interruptible: killed sweeps resume
    bit-exactly from their last checkpoint on the next invocation.
    ``profile`` (a :class:`repro.obs.Profile`) records per-step phase
    spans and payload metrics from both fine-tuning runs.
    """
    setup = pretrained_lm(seed=seed, finetune_batches=n_steps)
    return _compare(
        setup,
        act_aft_steps,
        seed,
        lr,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        tag="fig10-gpt2",
        profile=profile,
    )


def run_fig10_albert(
    n_steps: int = 120,
    act_aft_steps: int = 30,
    seed: int = 0,
    lr: float = 5e-4,
    checkpoint_dir=None,
    checkpoint_every: int | None = None,
    profile=None,
) -> Fig10Result:
    """The Albert panel: shared-layer encoder fine-tuning loss curves."""
    setup = pretrained_classifier(seed=seed, finetune_batches=n_steps)
    return _compare(
        setup,
        act_aft_steps,
        seed,
        lr,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=checkpoint_every,
        tag="fig10-albert",
        profile=profile,
    )


# --- registry ------------------------------------------------------------

from repro.experiments.registry import register, renderer


def rows_from_result(result: Fig10Result) -> list[dict]:
    """Canonical per-step rows of a :class:`Fig10Result` (shared by the
    registry adapter and the golden-row equivalence tests)."""
    return [
        {
            "step": i,
            "baseline": result.baseline_curve[i],
            "teco": result.teco_curve[i],
        }
        for i in range(len(result.baseline_curve))
    ]


@register(
    "fig10",
    "Figure 10 — loss curves with/without DBA",
    tags=("figure", "functional"),
)
def _fig10_experiment(ctx, n_steps=100, act_aft_steps=25, lr=5e-4):
    result = run_fig10(
        n_steps=n_steps,
        act_aft_steps=act_aft_steps,
        seed=ctx.seed,
        lr=lr,
        checkpoint_dir=ctx.checkpoint_dir,
        profile=ctx.profile,
    )
    return rows_from_result(result)


@renderer("fig10")
def _fig10_render(result):
    from repro.utils.tables import format_table

    stride = max(1, len(result.rows) // 10)
    return format_table(
        ["step", "original", "TECO-Reduction"],
        [
            (r["step"], f"{r['baseline']:.4f}", f"{r['teco']:.4f}")
            for r in result.rows[::stride]
        ],
        title="Figure 10 — training loss curves",
    )


@register(
    "fig10_full",
    "Figure 10 at full paper scale (1775 steps, DBA from step 500)",
    tags=("figure", "functional", "full"),
)
def _fig10_full_experiment(ctx, n_steps=1775, act_aft_steps=500, lr=5e-4):
    return _fig10_experiment(
        ctx, n_steps=n_steps, act_aft_steps=act_aft_steps, lr=lr
    )


renderer("fig10_full")(_fig10_render)


@register(
    "fig10-albert",
    "Figure 10 (Albert panel) — shared-layer encoder loss curves",
    tags=("figure", "functional"),
)
def _fig10_albert_experiment(ctx, n_steps=100, act_aft_steps=25, lr=5e-4):
    result = run_fig10_albert(
        n_steps=n_steps,
        act_aft_steps=act_aft_steps,
        seed=ctx.seed,
        lr=lr,
        checkpoint_dir=ctx.checkpoint_dir,
        profile=ctx.profile,
    )
    return rows_from_result(result)


@renderer("fig10-albert")
def _fig10_albert_render(result):
    return _fig10_render(result)
