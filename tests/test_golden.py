"""Certificates pinned byte for byte against committed golden files.

The files hold certificate_to_json(run_pipeline(p)) for the default
options, less the wall-clock timings_ms block; any change to the
arithmetic that alters a certificate shows here.  The p = 31 run is
shared with the acceptance suite through the timed_cert31 fixture, so it
runs once.  The algebra stage's two random sample streams are pinned draw
by draw as well, each draw with its block, so a check that moves a draw,
even between blocks that share a sampler, or a sampler that changes a
value shows even where the certificate's pass/fail counts would not.
"""

import json
import os
from pathlib import Path

import pytest

import sbcert.pipeline as pipeline
from sbcert import certificate_to_json, run_pipeline
from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field

GOLDEN = Path(__file__).parent / "golden"


def untimed_json(cert) -> str:
    """The certificate's JSON text less timings_ms, as CI strips it."""
    doc = json.loads(certificate_to_json(cert))
    doc.pop("timings_ms")
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("p", [7, 13])
def test_certificate_matches_golden(p):
    expected = (GOLDEN / f"cert_p{p}.json").read_text()
    assert untimed_json(run_pipeline(p)) == expected


def test_certificate_p31_matches_golden(timed_cert31):
    expected = (GOLDEN / "cert_p31.json").read_text()
    assert untimed_json(timed_cert31[0]) == expected


def record_algebra_draws(monkeypatch, p, a, seed, trials):
    """Every draw run_algebra_checks makes: its block, its sampler and each component.

    Each block's draw is wrapped, so a draw is tagged with the index of its
    block in key order and the sampler the block binds, and a component by
    its num and den; the samplers' inner draws are parts of theirs.  One
    CPU, so no child is forked: half 0's draws come first, then half 1's.
    """
    draws = []
    real_trial_blocks = pipeline._trial_blocks

    def recording(block, draw):
        def recorded(rng):
            x, name = draw(rng), draw.func.__name__
            parts = (x,) if name == "random_field_elem" else x.components
            draws.append(
                {"block": block, "sampler": name,
                 "components": [{"num": list(c.num), "den": c.den} for c in parts]}
            )
            return x

        return recorded

    def trial_blocks(seed, blocks):
        return real_trial_blocks(
            seed, [(n, recording(i, draw), arity, holds)
                   for i, (n, draw, arity, holds) in enumerate(blocks)]
        )

    monkeypatch.setattr(pipeline, "_trial_blocks", trial_blocks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    pipeline.run_algebra_checks(CyclicAlgebra(make_field(p), a), seed, trials)
    monkeypatch.undo()
    return draws


def test_algebra_draws_match_golden(monkeypatch):
    expected = json.loads((GOLDEN / "algebra_draws_p7.json").read_text())
    assert record_algebra_draws(monkeypatch, 7, 2, 0, 2) == expected


def test_seeds_of_opposite_sign_draw_different_samples(monkeypatch):
    # random.Random takes an int seed by its absolute value
    assert record_algebra_draws(monkeypatch, 7, 2, 5, 2) != record_algebra_draws(
        monkeypatch, 7, 2, -5, 2
    )
