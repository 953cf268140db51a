"""End-to-end acceptance gates.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Each criterion pins its tolerance. Criteria 5-7 and 9 use
planted corpora from `emit_cascades`, whose members follow the ground
truth's heat kernel and whose ideal ordering is known by construction:
criteria 5-7 a noiseless one, criterion 9 one with swap noise. Their test
cascades hold 8 of a source's 20 users, so MAP scores which users a model
ranks first, not only their order.
"""

import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import casembed.cli as cli
from casembed.combinations import (
    CombinationTable,
    Combination,
    build_table,
    critical_margin,
)
from casembed.data import Cascade, CascadeDataset
from casembed.evaluate import RankedPrediction, average_precision, evaluate
from casembed.model import EmbeddingModel, init_model
from casembed.synthetic import emit_cascades, generate_world
from casembed.training import (
    TrainConfig,
    _pack_table,
    _run_packed_epoch,
    accumulate_gradients,
    hinge_loss,
    predicted_gap,
    train,
)


def _gate(number: int, name: str, passed: bool, detail: str = ""):
    line = f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


# -- planted pipeline shared by criteria 5-7 --------------------------------

TRAIN_EPOCHS = 500


@pytest.fixture(scope="module")
def planted():
    world = generate_world(5, 20, 4, seed=11)
    train_set = emit_cascades(world, 100, 8, seed=101)
    # held-out test cascades hold 8 of each source's 20 users; on the whole
    # pool every model would score the same MAP
    test_set = emit_cascades(world, 20, 8, seed=202)
    return world, train_set, test_set


def _fit(train_set, sampling="dominant", epochs=TRAIN_EPOCHS):
    config = TrainConfig(epochs=epochs, dimension=8, learning_rate=0.01,
                         sampling=sampling, seed=1)
    return train(train_set, config)


@pytest.fixture(scope="module")
def trained(planted):
    _, train_set, _ = planted
    return _fit(train_set)


def test_criterion_1_margin_reproduction():
    first = critical_margin(2, 4, 2.0)
    second = critical_margin(1, 4, 2.0)
    ok_first = abs(first - 0.74) <= 0.005
    ok_second = abs(second - 1.32) <= 0.005
    dataset = CascadeDataset.from_token_rows(
        [("c1", ["1", "5", "3", "7", "4"]), ("c2", ["1", "3", "5", "7", "4"])]
    )
    table = build_table(dataset, 2.0, mode="full")
    combo = table.get(
        dataset.user_id("1"), dataset.user_id("3"), dataset.user_id("4")
    )
    ok_merged = combo is not None and abs(combo.avg_margin - 1.03) <= 0.005
    _gate(
        1,
        "margin reproduction",
        ok_first and ok_second and ok_merged,
        f"margins {first:.4f}, {second:.4f}, merged {combo.avg_margin:.4f}",
    )


def test_criterion_2_gradient_finite_differences():
    rng = np.random.default_rng(4242)
    step = 1e-5
    checked = 0
    worst = 0.0
    for dim in (1, 2, 8):
        for _ in range(334):
            points = rng.uniform(-1.0, 1.0, size=(3, dim))
            space = {1: 1, 2: 2}
            model = EmbeddingModel(dim, "independent", points.copy(), {0: 0},
                                   spaces={0: space})
            gap = predicted_gap(model, 0, 1, 2)
            margin = abs(gap) + float(rng.uniform(0.1, 1.0))
            combo = Combination(0, 1, 2, 1, margin)
            grads = accumulate_gradients(model, combo)
            assert grads is not None
            analytic = np.concatenate(grads)

            def hinge_term(flat):
                m = EmbeddingModel(dim, "independent", flat.reshape(3, dim),
                                   {0: 0}, spaces={0: dict(space)})
                return hinge_loss(margin, predicted_gap(m, 0, 1, 2))

            flat = points.ravel()
            numeric = np.empty_like(flat)
            for k in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[k] += step
                down[k] -= step
                numeric[k] = (hinge_term(up) - hinge_term(down)) / (2 * step)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)
            scale = np.maximum(np.abs(analytic), 1e-9)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
            checked += 1
    _gate(2, "gradient finite differences", checked >= 1000,
          f"{checked} active combinations, worst relative error {worst:.2e}")


def _brute_force_table(dataset, mu, mode):
    margins: dict[tuple, list] = {}
    for c in dataset:
        infected = c.infected
        for i in range(len(infected)):
            for j in range(i + 1, len(infected)):
                key = (c.source, infected[i], infected[j])
                value = math.log(1 + (j - i) / (2 + i), mu)  # t_i=i+1, t_j=j+1
                margins.setdefault(key, []).append(value)
    result = {}
    for key, values in margins.items():
        if mode == "dominant":
            opposite = margins.get((key[0], key[2], key[1]))
            if opposite is not None and len(opposite) >= len(values):
                continue
        result[key] = (len(values), sum(values) / len(values))
    return result


def test_criterion_3_combination_oracle():
    rng = np.random.default_rng(333)
    datasets = 0
    for _ in range(200):
        n_users = int(rng.integers(2, 9))
        rows = []
        for k in range(int(rng.integers(1, 21))):
            length = int(rng.integers(2, min(6, n_users) + 1))
            chosen = rng.choice(n_users, size=length, replace=False)
            rows.append((f"c{k}", [str(u) for u in chosen]))
        dataset = CascadeDataset.from_token_rows(rows)
        mu = float(rng.choice([1.5, 2.0, math.e, 10.0]))
        for mode in ("full", "dominant"):
            expected = _brute_force_table(dataset, mu, mode)
            table = build_table(dataset, mu, mode=mode)
            assert set(table.keys()) == set(expected), (mode, mu)
            for combo in table:
                count, avg = expected[combo.key]
                assert combo.count == count
                assert abs(combo.avg_margin - avg) <= 1e-12
        datasets += 1
    _gate(3, "combination table vs brute force", datasets == 200,
          f"{datasets} random datasets, both modes, margins to 1e-12")


def test_criterion_4_average_precision():
    b, x, c, y, d = 1, 2, 3, 4, 5
    pred = RankedPrediction(0, ((b, 0.1), (x, 0.2), (c, 0.3), (y, 0.4), (d, 0.5)))
    hand = average_precision(pred, Cascade("t", (0, b, c, d)))
    ok_hand = abs(hand - 0.7556) <= 1e-4

    rng = np.random.default_rng(444)
    exact = 0
    for _ in range(500):
        n = int(rng.integers(1, 30))
        ranking = list(map(int, rng.permutation(n)))
        truth_size = int(rng.integers(1, n + 4))
        truth = set(map(int, rng.choice(n + 3, size=truth_size, replace=False)))
        source = 10_000
        pred = RankedPrediction(source, tuple((u, float(k)) for k, u in enumerate(ranking)))
        cascade = Cascade("t", tuple([source] + sorted(truth)))
        oracle = 0.0
        for k in range(1, n + 1):
            if ranking[k - 1] in truth:
                oracle += len(set(ranking[:k]) & truth) / k
        oracle /= len(truth)
        if average_precision(pred, cascade) == oracle:
            exact += 1
    _gate(4, "average precision vs prefix oracle", ok_hand and exact == 500,
          f"hand example {hand:.4f}, {exact}/500 exact matches")


def test_criterion_5_planted_recovery(planted, trained):
    """Measured at worlds 11-13 (this fixture is world 11): trained
    0.943-0.955, ground truth 0.947-0.956, untrained 0.560-0.626, chance
    0.565-0.585."""
    world, train_set, test_set = planted
    model, history = trained
    initial = history[0].total_loss
    final = history[-1].total_loss
    ok_loss = final <= 0.05 * initial
    report = evaluate(model, test_set)
    trained_map, chance = report.map, report.chance_map
    untrained = evaluate(_fit(train_set, epochs=0)[0], test_set).map
    truth = evaluate(world, test_set).map
    ok_map = (trained_map >= max(chance, untrained) + 0.25
              and trained_map >= truth - 0.03)
    _gate(5, "planted recovery", ok_loss and ok_map,
          f"loss {initial:.1f} -> {final:.3g} in {len(history)} epochs,"
          f" test MAP {trained_map:.4f}, ground truth {truth:.4f},"
          f" untrained {untrained:.4f}, chance {chance:.4f}")


def test_criterion_6_loss_descent(planted):
    _, train_set, _ = planted
    config = TrainConfig(epochs=TRAIN_EPOCHS, dimension=8, learning_rate=1e-3, seed=1)
    _, history = train(train_set, config)
    losses = [s.total_loss for s in history]
    pairs = list(zip(losses, losses[1:]))
    non_increasing = sum(1 for a, b in pairs if b <= a) / len(pairs)
    ok = non_increasing >= 0.95 and losses[-1] < losses[0]
    _gate(6, "loss descent at small learning rate", ok,
          f"non-increasing in {non_increasing:.1%} of steps,"
          f" {losses[0]:.1f} -> {losses[-1]:.1f}")


def _with_reversed_duplicates(dataset):
    """The corpus plus a reversed copy of every fifth cascade (20% of it)."""
    reversed_dupes = [
        Cascade(c.cascade_id + "-rev", (c.source,) + tuple(reversed(c.infected)))
        for i, c in enumerate(dataset)
        if i % 5 == 0
    ]
    return CascadeDataset(list(dataset.cascades) + reversed_dupes, dataset.tokens)


def test_criterion_7_sampling_economy(planted):
    """Dominant sampling shrinks the table and the epoch without hurting
    prediction. On the reversed duplicates full sampling fits contradictory
    orders; measured at worlds 11-13: dominant MAP 0.942-0.955, full
    0.725-0.752, full's chance 0.565-0.585."""
    _, train_set, test_set = planted
    augmented = _with_reversed_duplicates(train_set)
    dominant_table = build_table(augmented, mode="dominant")
    full_table = build_table(augmented, mode="full")
    ok_size = len(dominant_table) < len(full_table)

    configs = {
        sampling: TrainConfig(epochs=TRAIN_EPOCHS, dimension=8, learning_rate=0.01,
                              sampling=sampling, seed=1)
        for sampling in ("dominant", "full")
    }
    models, work = {}, {}
    for sampling, config in configs.items():
        models[sampling], history = train(augmented, config)
        work[sampling] = history.combinations + history.slots * config.dimension
    ok_work = (work["dominant"], work["full"]) == (1075, 1493)

    # Time the epoch alone, without the fit's set-up, on a corpus built the
    # same way from a larger world: on this one both epochs take about 0.1 ms,
    # mostly fixed per-call cost, and their ratio sat at 0.94-0.97. On the
    # larger one (about 24k dominant against 44k full combinations) the
    # table-scaled work dominates, and the ratio sits near 0.67. Each
    # sampling's table is packed against its initial model, and every epoch
    # runs from the initial coordinates. A pair runs 20 epochs of each
    # sampling, alternating them call by call and switching which goes
    # first, and keeps each side's fastest; pairs are compared within: host
    # speed drifts and steps during a run, which moves both sides of a pair
    # together but can split unpaired medians.
    timed = _with_reversed_duplicates(
        emit_cascades(generate_world(20, 60, 4, seed=11), 100, 30, seed=101))
    packs = {}
    for sampling, config in configs.items():
        table = build_table(timed, mode=sampling)
        model = init_model(table, config, np.random.default_rng(config.seed))
        packs[sampling] = (model, _pack_table(model, table), model.coords.copy())
    per_epoch = {sampling: [] for sampling in configs}
    for pair in range(5):
        fastest = dict.fromkeys(configs, math.inf)
        for call in range(20):
            for sampling in sorted(configs, reverse=(pair + call) % 2 == 1):
                model, packed, initial = packs[sampling]
                np.copyto(model.coords, initial)
                start = time.perf_counter()
                _run_packed_epoch(model, packed, configs[sampling].learning_rate, 0)
                fastest[sampling] = min(fastest[sampling], time.perf_counter() - start)
        for sampling, seconds in fastest.items():
            per_epoch[sampling].append(seconds)
    dominant_model, full_model = models["dominant"], models["full"]
    dominant_epoch = statistics.median(per_epoch["dominant"])
    full_epoch = statistics.median(per_epoch["full"])
    ratio = statistics.median(d / f for d, f in zip(per_epoch["dominant"], per_epoch["full"]))
    ok_time = ratio < 1.0
    map_dominant = evaluate(dominant_model, test_set).map
    full_report = evaluate(full_model, test_set)
    map_full, chance = full_report.map, full_report.chance_map
    ok_map = map_dominant >= map_full - 0.05 and map_full >= chance + 0.1
    _gate(
        7,
        "dominant sampling economy",
        ok_size and ok_work and ok_time and ok_map,
        f"table {len(dominant_table)} vs {len(full_table)},"
        f" epoch work {work['dominant']} vs {work['full']},"
        f" epoch {dominant_epoch * 1e3:.2f} vs {full_epoch * 1e3:.2f} ms"
        f" on {len(packs['dominant'][1].margins)} vs {len(packs['full'][1].margins)}"
        f" combinations (paired ratio {ratio:.2f}),"
        f" MAP {map_dominant:.3f} vs {map_full:.3f} (chance {chance:.3f})",
    )


# -- noisy kernel membership, criterion 9 -----------------------------------


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_criterion_9_kernel_membership_is_learned(seed):
    """Training cascades with swap noise 0.1. Measured at seeds 11-13:
    trained 0.934-0.945 (full sampling 0.933-0.946), ground truth
    0.940-0.952, untrained 0.572-0.602, chance 0.545-0.588; tables of
    479-560 dominant against 574-663 full combinations."""
    world = generate_world(5, 20, 4, seed=seed)
    train_set = emit_cascades(world, 100, 8, noise=0.1, seed=100 + seed)
    test_set = emit_cascades(world, 20, 8, noise=0.0, seed=200 + seed)

    def fit(sampling, epochs=TRAIN_EPOCHS):
        return evaluate(_fit(train_set, sampling, epochs)[0], test_set)

    report = fit("dominant")
    trained, chance = report.map, report.chance_map
    full = fit("full").map
    untrained = fit("dominant", epochs=0).map
    truth = evaluate(world, test_set).map
    tables = [len(build_table(train_set, mode=mode)) for mode in ("dominant", "full")]
    ok = (trained >= max(chance, untrained) + 0.25
          and trained >= truth - 0.03
          and abs(trained - full) <= 0.05
          and tables[0] < tables[1])
    _gate(9, f"kernel membership learned, seed {seed}", ok,
          f"MAP trained {trained:.4f}, full {full:.4f}, ground truth {truth:.4f},"
          f" untrained {untrained:.4f}, chance {chance:.4f};"
          f" table {tables[0]} vs {tables[1]}")


class TestCriterion8Invariance:
    def test_translation_invariance(self):
        rng = np.random.default_rng(888)
        failures = 0
        for _ in range(25):
            world = generate_world(1, 8, 3, seed=int(rng.integers(1 << 30)))
            dataset = emit_cascades(world, 12, 5, seed=int(rng.integers(1 << 30)))
            table = build_table(dataset, mode="dominant")
            config = TrainConfig(epochs=1, dimension=3, seed=7)
            base = init_model(table, config, np.random.default_rng(7))
            shifted = init_model(table, config, np.random.default_rng(7))
            shifted.coords += rng.normal(size=3)  # one source: shifts x and all Y
            for combo in table:
                gap_a = predicted_gap(base, *combo.key)
                gap_b = predicted_gap(shifted, *combo.key)
                if abs(gap_a - gap_b) > 1e-9:
                    failures += 1
                if hinge_loss(combo.avg_margin, gap_a) != pytest.approx(
                    hinge_loss(combo.avg_margin, gap_b), abs=1e-9
                ):
                    failures += 1
                grad_a = accumulate_gradients(base, combo)
                grad_b = accumulate_gradients(shifted, combo)
                if (grad_a is None) != (grad_b is None):
                    failures += 1
                elif grad_a is not None:
                    for ga, gb in zip(grad_a, grad_b):
                        if not np.allclose(ga, gb, atol=1e-9):
                            failures += 1
        _gate(8, "translation invariance per source", failures == 0,
              f"{failures} deviations over 25 planted models")

    def test_kernel_ranking_equivalence(self):
        rng = np.random.default_rng(999)
        mismatches = 0
        for _ in range(100):
            dim = int(rng.integers(1, 7))
            n_users = int(rng.integers(2, 12))
            coords = rng.uniform(-1.0, 1.0, size=(n_users + 1, dim))
            space = {u: u for u in range(1, n_users + 1)}
            model = EmbeddingModel(dim, "independent", coords, {0: 0},
                                   spaces={0: space})
            t = float(rng.uniform(0.05, 10.0))
            users = sorted(space)
            by_distance = sorted(users, key=lambda u: (model.distance_sq(0, u), u))
            by_kernel = sorted(
                users, key=lambda u: (-model.diffusion_kernel(0, u, time=t), u)
            )
            if by_distance != by_kernel:
                mismatches += 1
        _gate(8, "kernel/distance ranking equivalence", mismatches == 0,
              "100 random models")

    def test_cli_determinism_across_threads(self, tmp_path):
        def run(*argv):
            return cli.main([str(a) for a in argv])

        synth_dir = tmp_path / "synth"
        assert run("synth", "--sources", 3, "--users-per-source", 10, "--dim", 2,
                   "--cascades-per-source", 40, "--len", 6, "--seed", 21,
                   "--out-dir", synth_dir) == 0
        splits = tmp_path / "splits"
        assert run("split", "--input", synth_dir / "synthetic.cascades",
                   "--test-frac", 0.2, "--seed", 3, "--out-dir", splits) == 0
        model_path = tmp_path / "model.iaem"
        assert run("train", "--train", splits / "train.cascades", "--dim", 4,
                   "--epochs", 80, "--seed", 5, "--model-out", model_path) == 0
        reports = {}
        for threads in (1, 4):
            report_path = tmp_path / f"report-t{threads}.jsonl"
            assert run("eval", "--model", model_path,
                       "--test", splits / "test.cascades",
                       "--out", report_path, "--threads", threads) == 0
            reports[threads] = report_path.read_bytes()
        _gate(8, "eval determinism across --threads", reports[1] == reports[4],
              "report bytes identical for 1 and 4 workers")

    def test_cli_determinism_across_environment(self, tmp_path):
        # What could move bytes between runs is the environment, not a
        # flag: BLAS and OpenMP thread counts and the hash seed. Each run is
        # `python -m casembed.cli` in its own process.
        def run(*argv):
            return cli.main([str(a) for a in argv])

        synth_dir = tmp_path / "synth"
        assert run("synth", "--sources", 3, "--users-per-source", 10, "--dim", 2,
                   "--cascades-per-source", 40, "--len", 6, "--seed", 21,
                   "--out-dir", synth_dir) == 0
        splits = tmp_path / "splits"
        assert run("split", "--input", synth_dir / "synthetic.cascades",
                   "--test-frac", 0.2, "--seed", 3, "--out-dir", splits) == 0
        src = Path(cli.__file__).resolve().parent.parent
        path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
        artifacts = {}
        for threads, hash_seed in (("1", "0"), ("2", "0"), ("1", "1")):
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "PYTHONHASHSEED": hash_seed}
            out = tmp_path / f"threads{threads}-hash{hash_seed}"
            for argv in (
                ["train", "--train", splits / "train.cascades", "--dim", 4, "--epochs", 80,
                 "--seed", 5, "--model-out", out / "model.iaem", "--log", out / "train.log"],
                ["eval", "--model", out / "model.iaem", "--test", splits / "test.cascades",
                 "--out", out / "report.jsonl"],
            ):
                proc = subprocess.run([sys.executable, "-m", "casembed.cli", *map(str, argv)],
                                      capture_output=True, text=True, timeout=300, env=env)
                assert proc.returncode == 0, proc.stderr
            artifacts[threads, hash_seed] = [
                (out / name).read_bytes() for name in ("model.iaem", "train.log", "report.jsonl")
            ]
        first, *others = artifacts.values()
        ok = all(other == first for other in others)
        _gate(8, "train/eval determinism across the environment", ok,
              "model, log and report bytes identical for BLAS/OpenMP threads 1 and 2"
              " and PYTHONHASHSEED 0 and 1")
