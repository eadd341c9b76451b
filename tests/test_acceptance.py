"""End-to-end acceptance gate.

Every test here checks one shipping criterion and emits a single
`acceptance N (<label>): PASS|FAIL` line on the terminal (bypassing
capture), so the gate can be read at a glance.  Numeric tolerances are
stated inline next to each check.
"""

import itertools
import random
import time
from statistics import fmean

import pytest
from scipy.stats import chisquare, spearmanr

import oracle
from conftest import make_alphabet, make_population
from evotropy import (
    RunConfig,
    UnmeasurablePopulationError,
    build_evolution_config,
    crossover_pair,
    evolve,
    fitness,
    mutate,
    physical_complexity_variable,
    run_experiment,
    select,
)

# the five reproducibility seeds used for the selection-ablation check;
# they are part of the documented interface (see README) and must not drift
ABLATION_SEEDS = (42, 23, 57, 4711, 424242)


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(number: int, label: str, passed: bool, detail: str = ""):
        line = f"acceptance {number} ({label}): {'PASS' if passed else 'FAIL'}"
        if reporter is not None:
            reporter.ensure_newline()
            reporter.write_line(line)
        else:
            print(line)
        assert passed, f"{line}{' -- ' + detail if detail else ''}"

    return _announce


def matches_oracle(rows, alphabet_size, tolerance=1e-12):
    """Full pipeline vs the naive reference implementation."""
    population = make_population(make_alphabet(alphabet_size), rows)
    expected = oracle.complexity_report(rows, alphabet_size)
    if expected is None:
        try:
            physical_complexity_variable(population)
        except UnmeasurablePopulationError:
            return True
        return False
    measured, entropies, complexity, eff = expected
    report = physical_complexity_variable(population)
    if report.calculable_length != measured:
        return False
    if len(report.per_site_entropy) != len(entropies):
        return False
    for ours, theirs in zip(report.per_site_entropy, entropies):
        if abs(ours - theirs) > tolerance:
            return False
    return (
        abs(report.complexity - complexity) <= tolerance
        and abs(report.efficiency - eff) <= tolerance
    )


def test_criterion_1_oracle_equivalence(announce):
    started = time.monotonic()
    ok = True

    # exhaustive: every multiset of up to 4 members drawn from the 14
    # sequences of length <= 3 over a 2-symbol alphabet (3059 populations)
    sequences = [
        list(symbols)
        for length in (1, 2, 3)
        for symbols in itertools.product(range(2), repeat=length)
    ]
    assert len(sequences) == 14
    count = 0
    for size in (1, 2, 3, 4):
        for combo in itertools.combinations_with_replacement(sequences, size):
            count += 1
            if not matches_oracle(list(combo), 2):
                ok = False
    assert count == 3059

    # plus 500 random mixed-length populations over a 3-symbol alphabet
    rng = random.Random(20260815)
    for _ in range(500):
        rows = [
            [rng.randrange(3) for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(1, 20))
        ]
        if not matches_oracle(rows, 3):
            ok = False

    elapsed = time.monotonic() - started
    announce(
        1,
        "oracle equivalence",
        ok and elapsed < 10.0,
        f"3559 populations compared in {elapsed:.2f}s (budget 10s)",
    )


def test_criterion_2_mixed_length_cutoff(announce):
    # 16 members reach site 5 (16 >= 3*5) but only 10 reach site 6 (10 < 18)
    rows = [[0, 1, 2, 0, 1, 2] for _ in range(10)] + [
        [2, 0, 2, 0, 2] for _ in range(6)
    ]
    population = make_population(make_alphabet(3), rows)
    measured = physical_complexity_variable(population).calculable_length
    announce(2, "mixed-length cutoff", measured == 5, f"calculable_length={measured}")


def test_criterion_3_entropy_extremes(announce):
    # unanimous population: every measurable site fully ordered
    unanimous = make_population(make_alphabet(2), [[0, 1, 1, 0]] * 12)
    exact_one = physical_complexity_variable(unanimous).efficiency == 1.0

    # uniform population: every site maximally disordered
    uniform_rows = [list(symbols) for symbols in itertools.product(range(2), repeat=3)]
    uniform = make_population(make_alphabet(2), uniform_rows)
    report = physical_complexity_variable(uniform)
    near_zero = abs(report.complexity) <= 1e-12

    announce(
        3,
        "entropy extremes",
        exact_one and near_zero,
        f"unanimous efficiency={physical_complexity_variable(unanimous).efficiency!r}, "
        f"uniform complexity={report.complexity!r}",
    )


def test_criterion_4_self_organisation_trend(announce):
    started = time.monotonic()
    stats = [row for _, row in evolve(build_evolution_config(RunConfig(rng_seed=42)))]
    elapsed = time.monotonic() - started

    early = stats[:151]
    measurable = all(row.complexity is not None for row in early)
    if measurable:
        rho = spearmanr(
            [row.generation for row in early],
            [row.complexity for row in early],
        ).statistic
    else:
        rho = float("nan")
    fitness_gain = stats[300].max_fitness - stats[0].max_fitness

    ok = measurable and rho >= 0.8 and fitness_gain >= 0.2 and elapsed < 60.0
    announce(
        4,
        "self-organisation trend",
        ok,
        f"spearman={rho:.3f} (need >= 0.8), fitness gain={fitness_gain:.3f} "
        f"(need >= 0.2), {elapsed:.2f}s (budget 60s)",
    )


def test_criterion_5_selection_ablation(announce):
    details = []
    passing = 0
    for seed in ABLATION_SEEDS:
        disc_stats = [
            row for _, row in evolve(build_evolution_config(RunConfig(rng_seed=seed)))
        ]
        flat_stats = [
            row
            for _, row in evolve(
                build_evolution_config(RunConfig(rng_seed=seed, mode="nondiscriminating"))
            )
        ]
        disc = disc_stats[-1].efficiency
        flat = flat_stats[-1].efficiency
        disc = 0.0 if disc is None else disc
        flat = 0.0 if flat is None else flat
        seed_ok = disc >= 0.5 and disc >= 2.0 * flat
        passing += seed_ok
        details.append(f"seed {seed}: disc={disc:.3f} flat={flat:.3f} "
                       f"{'ok' if seed_ok else 'FAIL'}")
    announce(
        5,
        "selection ablation",
        passing >= 4,
        f"{passing}/5 seeds pass (need >= 4); " + "; ".join(details),
    )


def test_criterion_6_reproducible_artifacts(announce, tmp_path):
    config = dict(rng_seed=42, generations=40, snapshot_every=20)
    run_experiment(RunConfig(**config, output_dir=str(tmp_path / "first")))
    run_experiment(RunConfig(**config, output_dir=str(tmp_path / "second")))

    names = sorted(path.name for path in (tmp_path / "first").iterdir())
    ok = names == sorted(path.name for path in (tmp_path / "second").iterdir())
    ok = ok and "stats.csv" in names and any(n.endswith(".ppm") for n in names)
    for name in names:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        if first != second:
            ok = False
    announce(
        6,
        "reproducible artifacts",
        ok,
        f"compared files: {', '.join(names)}",
    )


def test_criterion_7_operator_invariants(announce):
    rng = random.Random(97)
    ok = True
    detail = ""

    def random_sequence(alphabet_size, max_length=8):
        length = rng.randint(1, max_length)
        return tuple(rng.randrange(alphabet_size) for _ in range(length))

    # crossover: conservation of total length and of the symbol multiset,
    # and no empty children -- 10,000 random pairs
    from collections import Counter

    for case in range(10_000):
        alphabet_size = rng.randint(2, 6)
        parent1 = random_sequence(alphabet_size)
        parent2 = random_sequence(alphabet_size)
        child1, child2 = crossover_pair(parent1, parent2, rng)
        if len(child1) < 1 or len(child2) < 1:
            ok, detail = False, f"crossover case {case}: empty child"
            break
        if len(child1) + len(child2) != len(parent1) + len(parent2):
            ok, detail = False, f"crossover case {case}: length not conserved"
            break
        if Counter(child1) + Counter(child2) != Counter(parent1) + Counter(parent2):
            ok, detail = False, f"crossover case {case}: symbols not conserved"
            break

    # mutation: exactly one edit, never empty, symbols stay in range
    if ok:
        for case in range(10_000):
            alphabet_size = rng.randint(2, 6)
            alphabet = make_alphabet(alphabet_size)
            individual = random_sequence(alphabet_size)
            mutant = mutate(individual, alphabet, rng)
            if len(mutant) < 1:
                ok, detail = False, f"mutation case {case}: empty result"
                break
            if not oracle.is_single_edit(list(individual), list(mutant)):
                ok, detail = False, f"mutation case {case}: not a single edit"
                break
            if any(not 0 <= s < alphabet_size for s in mutant):
                ok, detail = False, f"mutation case {case}: symbol out of range"
                break

    # selection: closure over the input members, 500 selections x 20 draws
    if ok:
        alphabet = make_alphabet(4)
        for case in range(500):
            rows = [
                [rng.randrange(4) for _ in range(rng.randint(1, 5))]
                for _ in range(rng.randint(2, 10))
            ]
            population = make_population(alphabet, rows)
            weights = [rng.uniform(0.01, 1.0) for _ in rows]
            chosen = select(population, weights, 20, rng)
            allowed = {tuple(row) for row in rows}
            if any(member not in allowed for member in chosen):
                ok, detail = False, f"selection case {case}: member from nowhere"
                break
            if len(chosen) != 20:
                ok, detail = False, f"selection case {case}: wrong size"
                break

    # fitness: positive, bounded by 1, and exactly 1 iff every requested
    # value is covered by some pooled attribute -- 10,000 random worlds
    if ok:
        for case in range(10_000):
            pool_size = rng.randint(2, 6)
            attributes = [
                tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 3)))
                for _ in range(pool_size)
            ]
            alphabet = make_alphabet(pool_size, attributes)
            request = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 4)))
            individual = random_sequence(pool_size, max_length=5)
            score = fitness(individual, request, alphabet)
            if not 0.0 < score <= 1.0:
                ok, detail = False, f"fitness case {case}: score {score} out of range"
                break
            pooled = {value for symbol in individual for value in alphabet[symbol]}
            covered = all(value in pooled for value in request)
            if (score == 1.0) != covered:
                ok, detail = False, f"fitness case {case}: exactness mismatch"
                break

    announce(7, "operator invariants", ok, detail)


def test_criterion_8_randomness_calibration(announce):
    # mutation-kind frequencies over 30,000 draws on a length-10 individual:
    # the length delta identifies the kind (+1 insert, 0 replace, -1 delete)
    rng = random.Random(2218)
    alphabet = make_alphabet(4)
    individual = tuple(range(4)) + tuple(range(4)) + (0, 1)
    assert len(individual) == 10
    deltas = {-1: 0, 0: 0, 1: 0}
    draws = 30_000
    for _ in range(draws):
        deltas[len(mutate(individual, alphabet, rng)) - len(individual)] += 1
    fractions = {delta: count / draws for delta, count in deltas.items()}
    kinds_ok = all(0.323 <= fraction <= 0.343 for fraction in fractions.values())

    # roulette draws under uniform weights must be consistent with uniform:
    # chi-square goodness of fit over 8 members x 10,000 draws, p > 0.01
    population = make_population(make_alphabet(8), [[s] for s in range(8)])
    chosen = select(population, [1.0] * 8, 10_000, random.Random(5150))
    counts = [0] * 8
    for member in chosen:
        counts[member[0]] += 1
    p_value = chisquare(counts).pvalue
    roulette_ok = p_value > 0.01

    announce(
        8,
        "randomness calibration",
        kinds_ok and roulette_ok,
        f"kind fractions={ {d: round(f, 4) for d, f in fractions.items()} } "
        f"(band [0.323, 0.343]), roulette chi-square p={p_value:.4f} (need > 0.01)",
    )
