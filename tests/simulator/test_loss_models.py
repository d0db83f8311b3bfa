"""Unit tests for the loss models."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.simulator.loss_models import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    NoLoss,
    PeriodicLoss,
)
from repro.simulator.packet import Packet


def pkt():
    return Packet("a", "b", 100)


class TestNoLoss:
    def test_never_drops(self):
        model = NoLoss()
        assert not any(model.should_drop(pkt()) for _ in range(100))


class TestBernoulli:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(1))
        with pytest.raises(ValueError):
            BernoulliLoss(-0.1, random.Random(1))

    def test_zero_rate_never_drops(self):
        model = BernoulliLoss(0.0, random.Random(1))
        assert not any(model.should_drop(pkt()) for _ in range(100))

    def test_one_rate_always_drops(self):
        model = BernoulliLoss(1.0, random.Random(1))
        assert all(model.should_drop(pkt()) for _ in range(100))

    @pytest.mark.parametrize("rate", [0.01, 0.03, 0.05])
    def test_empirical_rate_close_to_nominal(self, rate):
        """The paper's lossy configs: 1%, 3%, 5%."""
        model = BernoulliLoss(rate, random.Random(42))
        n = 50_000
        drops = sum(model.should_drop(pkt()) for _ in range(n))
        assert abs(drops / n - rate) < 0.004

    def test_reproducible_with_seed(self):
        a = BernoulliLoss(0.5, random.Random(9))
        b = BernoulliLoss(0.5, random.Random(9))
        seq_a = [a.should_drop(pkt()) for _ in range(50)]
        seq_b = [b.should_drop(pkt()) for _ in range(50)]
        assert seq_a == seq_b

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            BernoulliLoss(0.1, random.Random(1), batch=0)

    @pytest.mark.parametrize("rate", [0.01, 0.03, 0.5])
    def test_batched_draws_match_unbatched(self, rate):
        """Every lossy topology link uses batch=256, so its digest rests
        on batched decisions equalling per-packet draws exactly."""
        n = 40 * 256 + 17  # 41 refills, the last one consumed in part
        batched = BernoulliLoss(rate, random.Random(5), batch=256)
        direct = BernoulliLoss(rate, random.Random(5), batch=1)
        assert ([batched.should_drop(pkt()) for _ in range(n)]
                == [direct.should_drop(pkt()) for _ in range(n)])


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(random.Random(1), p_good_to_bad=1.5)

    def test_burstiness(self):
        """Losses cluster compared to Bernoulli at equal average rate."""
        model = GilbertElliottLoss(
            random.Random(3), p_good_to_bad=0.01, p_bad_to_good=0.2,
            good_loss=0.0, bad_loss=0.5,
        )
        drops = [model.should_drop(pkt()) for _ in range(50_000)]
        rate = sum(drops) / len(drops)
        assert abs(rate - model.steady_state_loss) < 0.01
        # count adjacent double-losses; bursty >> independent
        pairs = sum(1 for i in range(len(drops) - 1) if drops[i] and drops[i + 1])
        expected_independent = rate * rate * len(drops)
        assert pairs > 3 * expected_independent

    def test_steady_state_formula(self):
        model = GilbertElliottLoss(
            random.Random(1), p_good_to_bad=0.1, p_bad_to_good=0.1,
            good_loss=0.0, bad_loss=0.4,
        )
        assert model.steady_state_loss == pytest.approx(0.2)


class TestDeterministic:
    def test_drops_listed_indices(self):
        model = DeterministicLoss([2, 4])
        results = [model.should_drop(pkt()) for _ in range(5)]
        assert results == [False, True, False, True, False]


class TestPeriodic:
    def test_period_validation(self):
        with pytest.raises(ValueError):
            PeriodicLoss(0)

    def test_exact_rate(self):
        model = PeriodicLoss(10)
        drops = [model.should_drop(pkt()) for _ in range(100)]
        assert sum(drops) == 10
        assert drops[9] and drops[19]

    def test_offset_shifts_pattern(self):
        model = PeriodicLoss(10, offset=5)
        drops = [model.should_drop(pkt()) for _ in range(10)]
        assert drops.index(True) == 4


def test_runs_without_numpy():
    """The package and a lossy session need nothing beyond the stdlib
    and networkx: numpy is blocked outright in a fresh interpreter."""
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None
        import repro.experiments.run_all
        from repro.pgm import create_session
        from repro.simulator import LOSSY, dumbbell

        net = dumbbell(1, 3, LOSSY, seed=1)
        session = create_session(net, "h0", ["r0", "r1", "r2"])
        net.run(until=5.0)
        drops = sum(link.random_drops for node in net.nodes.values()
                    for link in node.links.values())
        print(session.summary()["odata_sent"], drops)
    """)
    src = Path(__file__).resolve().parents[2] / "src"
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGMCC_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    odata, drops = map(int, proc.stdout.split())
    assert odata > 0 and drops > 0
