"""Negative controls for the benchmark's checks, and a tracing sanity check.

A deliberately perturbed reference and a result that does not repeat bit
for bit must each push the failed-operation count above zero, in the
spirit of ``moser2d oracles --corrupt-oracle``; the unperturbed runs of
the same rounds must fail nothing.

    python -m pytest bench/test_controls.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
# the benchmark's modules import one another by their bare names; the
# search path is restored at once, so tests collected after these see
# the path they would have seen without them
_saved_path = list(sys.path)
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
try:
    import moser2d
    import reference
    import run
    import tracing
    import workloads
finally:
    sys.path[:] = _saved_path


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so that one round takes well under a second."""
    monkeypatch.setattr(workloads, "OPT_BUDGET", 40)
    monkeypatch.setattr(workloads, "OPT_KNOTS", (8,))
    monkeypatch.setattr(workloads, "EVAL_NS", (10, 10**6))
    monkeypatch.setattr(
        workloads, "EVAL_RANDOM", ((2, 2, False), (32, 2, False), (2, 1, True))
    )
    monkeypatch.setattr(workloads, "RV_SIDES", (16, 25))
    monkeypatch.setattr(workloads, "RV_REFINED", (300,))


def _tally(name, tmp_path, tracer=None):
    wl = workloads.WORKLOADS[name](7, str(tmp_path))
    wl.prepare()
    tally = run.Tally()
    keep = []
    run.measure(wl, tally, rounds=1, tracer=tracer, keep=keep)
    run.rerun(keep, tally)
    return tally


def _drifting(fn):
    """fn with each call's float result moved by a different number of ulps."""
    calls = [0]

    def drift(*args, **kwargs):
        calls[0] += 1
        out = fn(*args, **kwargs)
        return out * (1.0 + calls[0] * 2.0**-52)

    return drift


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unperturbed_rounds_pass(small, tmp_path, name):
    tally = _tally(name, tmp_path)
    assert tally.attempted > 0
    assert tally.failed == 0, tally.problems


@pytest.mark.parametrize(
    "name, target",
    [
        ("evaluate", "brute_j"),
        ("optimize", "brute_j"),
        ("rearrange_verify", "window_quasinorm_of_steps"),
    ],
)
def test_perturbed_reference_fails(small, tmp_path, monkeypatch, name, target):
    orig = getattr(reference, target)
    monkeypatch.setattr(reference, target, lambda *a, **k: orig(*a, **k) * (1.0 + 1e-6))
    tally = _tally(name, tmp_path)
    assert tally.failed > 0


def test_result_that_does_not_repeat_fails(small, tmp_path, monkeypatch):
    # a few ulps stay far inside the QUADPACK tolerance: only the
    # bit-identical rerun can catch them
    monkeypatch.setattr(moser2d, "remainder_functional", _drifting(moser2d.remainder_functional))
    tally = _tally("evaluate", tmp_path)
    assert tally.failed > 0
    assert any("bit-identical" in p for p in tally.problems)


def test_child_references_match_in_process_and_stop():
    s, v = [0.0, 0.7, 1.5, 1.5], [0.0, 0.4, 0.9, 1.1]
    with reference.Child() as child:
        assert child.brute_j(2.0, s, v, 4.0) == reference.brute_j(2.0, s, v, 4.0)
        assert child.brute_j(2.0, s, v, 4.0, "remainder") == reference.brute_j(
            2.0, s, v, 4.0, "remainder"
        )
        assert child.brute_l2(2.0, s, v) == reference.brute_l2(2.0, s, v)
        with pytest.raises(RuntimeError, match="IndexError"):
            child.brute_j(2.0, s, v[:2], 4.0)
    assert child.proc.returncode == 0


def test_tracer_accounts_for_wall_time_and_restores(small, tmp_path):
    before = (moser2d.tm_functional, moser2d.profile.profile_exp_integral,
              moser2d.RadialProfile.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert moser2d.profile.profile_exp_integral is not before[1]
        tally = _tally("evaluate", tmp_path, tracer=tracer)
    finally:
        tracer.uninstall()
    assert (moser2d.tm_functional, moser2d.profile.profile_exp_integral,
            moser2d.RadialProfile.__init__) == before
    assert tally.failed == 0
    m = tracer.layer_metrics()
    assert m["quadrature.calls"] > 0 and m["profile.construct_calls"] > 0
    assert m["quadrature.overflow_raised"] > 0
    wall = sum(r[tracing._T1] - r[tracing._T0] for r in tracer.spans if r[tracing._PARENT] < 0)
    layers = sum(m["%s.self_s" % layer] for layer in tracing.LAYERS)
    assert layers == pytest.approx(wall, rel=1e-9)
