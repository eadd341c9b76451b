"""Naive independent recomputations used as oracles by the tests.

Everything here works on plain lists of integer rows and deliberately
avoids the library's code paths and algebra: entropy is computed as
(log n - (sum c*log c)/n) / log d rather than summing -p*log p, and the
calculable length collects all qualifying sites instead of scanning a
prefix.  Agreement within 1e-12 is therefore meaningful.  evolve_naive
replays the whole generation loop the same way, with plain loops and
random integers derived from Random.random() here.
"""

import math
import random
from collections import Counter


def sample_size(rows, site):
    return sum(1 for row in rows if len(row) >= site)


def site_counts(rows, site):
    return Counter(row[site - 1] for row in rows if len(row) >= site)


def entropy(counts, alphabet_size):
    total = sum(counts.values())
    if total == 0:
        raise ValueError("empty distribution")
    weighted = 0.0
    for count in counts.values():
        if count > 0:
            weighted += count * math.log(count)
    return (math.log(total) - weighted / total) / math.log(alphabet_size)


def calculable_length(rows, alphabet_size):
    longest = max(len(row) for row in rows)
    qualifying = [
        site
        for site in range(1, longest + 1)
        if sample_size(rows, site) >= alphabet_size * site
    ]
    return max(qualifying, default=0)


def complexity_report(rows, alphabet_size):
    """(calculable_length, entropies, complexity, efficiency) or None if unmeasurable."""
    measured = calculable_length(rows, alphabet_size)
    if measured == 0:
        return None
    entropies = [
        entropy(site_counts(rows, site), alphabet_size)
        for site in range(1, measured + 1)
    ]
    complexity = measured - sum(entropies)
    return measured, entropies, complexity, complexity / measured


def is_single_edit(before, after):
    """True when `after` is `before` with exactly one symbol replaced,
    inserted, or removed."""
    before, after = tuple(before), tuple(after)
    if len(before) == len(after):
        return sum(1 for a, b in zip(before, after) if a != b) == 1
    if abs(len(before) - len(after)) != 1:
        return False
    short, long = (before, after) if len(before) < len(after) else (after, before)
    index = 0
    while index < len(short) and short[index] == long[index]:
        index += 1
    return short[index:] == long[index + 1 :]


def _rand_below(rng, n):
    # a uniform integer in [0, n) from one random() draw
    return int(rng.random() * n)


def _distinct_indices(rng, n, k):
    # the first k places of a Fisher-Yates shuffle of range(n)
    indices = list(range(n))
    for i in range(k):
        j = i + _rand_below(rng, n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return indices[:k]


def pooled_fitness(member, request, alphabet):
    """1 / (1 + the summed gaps from each request value to the closest
    attribute value pooled from every agent of `member`)."""
    pool = []
    for agent in member:
        for value in alphabet[agent]:
            pool.append(value)
    total_gap = 0
    for wanted in request:
        closest = None
        for value in pool:
            gap = abs(wanted - value)
            if closest is None or gap < closest:
                closest = gap
        total_gap += closest
    return 1.0 / (1.0 + total_gap)


def _mean(values):
    # the correctly rounded sum, divided once, as statistics.fmean does
    return math.fsum(values) / len(values)


def parsimony(score, length, mean_length, coefficient):
    """One member's score, divided by 1 + coefficient * excess when it is
    longer than the mean length."""
    if length > mean_length:
        return score / (1.0 + coefficient * (length - mean_length))
    return score


def roulette(rng, members, weights, count):
    """`count` draws from `members`, each the first member whose running
    weight sum exceeds random() times the total, or the last member."""
    boundaries = []
    running = 0.0
    for weight in weights:
        running += weight
        boundaries.append(running)
    chosen = []
    for _ in range(count):
        draw = rng.random() * running
        pick = len(members) - 1
        for index, boundary in enumerate(boundaries):
            if boundary > draw:
                pick = index
                break
        chosen.append(members[pick])
    return chosen


def _mutant(rng, member, alphabet_size):
    kind = ("insert", "replace", "delete")[_rand_below(rng, 3)]
    if kind == "delete" and len(member) == 1:
        kind = "replace"
    member = list(member)
    if kind == "insert":
        position = _rand_below(rng, len(member) + 1)
        member.insert(position, _rand_below(rng, alphabet_size))
    elif kind == "replace":
        position = _rand_below(rng, len(member))
        offset = 1 + _rand_below(rng, alphabet_size - 1)
        member[position] = (member[position] + offset) % alphabet_size
    else:
        del member[_rand_below(rng, len(member))]
    return tuple(member)


def _stats(generation, raw, members, alphabet_size):
    measured, _, complexity, efficiency = complexity_report(members, alphabet_size)
    return {
        "generation": generation,
        "max_fitness": max(raw),
        "mean_fitness": _mean(raw),
        "mean_length": _mean([len(member) for member in members]),
        "population_size": len(members),
        "calculable_length": measured,
        "complexity": complexity,
        "efficiency": efficiency,
    }


def evolve_naive(config):
    """The generation loop of evolution.evolve, written out with plain loops.

    Yields (members, rng_state, stats) for generation 0, seeded with
    lengths uniform in 1..5, and after each step, stats a dict of the
    GenerationStats fields: fitness from the pooled formula for every
    member with no memo, the parsimony penalty per member, the roulette
    as a linear scan of running sums, and the measure from
    complexity_report.
    """
    alphabet, request = config.alphabet, config.request
    size = len(alphabet)
    rng = random.Random(config.rng_seed)
    members = []
    for _ in range(config.population_floor):
        length = 1 + _rand_below(rng, 5)
        members.append(tuple(_rand_below(rng, size) for _ in range(length)))
    raw = [pooled_fitness(member, request, alphabet) for member in members]
    yield members, rng.getstate(), _stats(0, raw, members, size)
    for generation in range(1, config.generations + 1):
        lengths = [len(member) for member in members]
        mean_length = _mean(lengths)
        weights = []
        for score, length in zip(raw, lengths):
            if config.discriminating:
                coefficient = config.parsimony_coefficient
                weights.append(parsimony(score, length, mean_length, coefficient))
            else:
                weights.append(1.0)
        target = max(config.population_floor, math.ceil(size * mean_length))
        survivors = roulette(rng, members, weights, target)

        paired = int(config.crossover_fraction * len(survivors))
        if paired % 2 == 1:
            paired -= 1
        if paired >= 2:
            picks = _distinct_indices(rng, len(survivors), paired)
            for first, second in zip(picks[::2], picks[1::2]):
                one, other = survivors[first], survivors[second]
                shorter = min(len(one), len(other))
                if shorter >= 2:
                    cut = 1 + _rand_below(rng, shorter - 1)
                    survivors[first] = one[:cut] + other[cut:]
                    survivors[second] = other[:cut] + one[cut:]

        mutated = int(config.mutation_fraction * len(survivors))
        for index in _distinct_indices(rng, len(survivors), mutated):
            survivors[index] = _mutant(rng, survivors[index], size)

        yield survivors, rng.getstate(), _stats(generation, raw, survivors, size)
        members = survivors
        raw = [pooled_fitness(member, request, alphabet) for member in members]
