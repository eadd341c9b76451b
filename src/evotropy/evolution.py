"""Fitness-driven evolution of variable-length agent sequences.

The generation loop is deterministic end to end.  Every stochastic
choice flows through one Mersenne Twister (random.Random) consumed
exclusively via Random.random(), the single method CPython documents as
producing a stable stream across versions and platforms for a given
seed.  Integer draws are derived from it by the helpers below, so one
(config, seed) pair replays the same trajectory anywhere.
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from functools import reduce
from itertools import accumulate
from operator import index, or_, truediv

from .complexity import physical_complexity_variable
from .core import ConfigError, Population, _Record, _check_symbols, _shown

__all__ = [
    "INITIAL_LENGTH_RANGE",
    "MODES",
    "EvolutionConfig",
    "EvolutionState",
    "GenerationStats",
    "rand_below",
    "rand_int",
    "sample_indices",
    "fitness",
    "parsimony_adjusted_fitness",
    "select",
    "crossover_pair",
    "mutate",
    "evolve",
]

# freshly seeded members get lengths drawn uniformly from this range
INITIAL_LENGTH_RANGE = (1, 5)

# fitness-proportional selection, and its control of uniform draws
MODES = ("discriminating", "nondiscriminating")

_MUTATION_KINDS = ("insert", "replace", "delete")


def rand_below(rng: random.Random, n: int) -> int:
    """Uniform integer in [0, n), derived from a single random() draw."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    k = int(rng.random() * n)
    return k if k < n else n - 1


def rand_int(rng: random.Random, low: int, high: int) -> int:
    """Uniform integer in [low, high], inclusive on both ends."""
    if high < low:
        raise ValueError(f"empty range [{low}, {high}]")
    return low + rand_below(rng, high - low + 1)


def sample_indices(rng: random.Random, n: int, k: int) -> list[int]:
    """k distinct indices from range(n), in random order.

    Partial Fisher-Yates: consumes exactly k draws regardless of n.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot take {k} distinct indices from {n}")
    indices = list(range(n))
    for i in range(k):
        j = i + rand_below(rng, n - i)
        indices[i], indices[j] = indices[j], indices[i]
    return indices[:k]


class EvolutionConfig(_Record):
    """Knobs for one evolutionary run, and the world it runs in.

    `alphabet` is the agent pool, a tuple of agents, agent i the tuple of
    its attribute values at index i; `request` is the tuple of attribute
    values asked for.  The constructor turns any rows of integers into
    those tuples of ints, as operator.index takes them.

    `mode`, one of MODES, switches between fitness-proportional survival
    and an equal-probability baseline; nothing else in the pipeline
    changes, so the two modes isolate exactly the effect of selection
    pressure.
    `gaps`, the fitness gap table of the run, and `codes`, each agent's
    coverage code read from it, are built with the config; derived from
    the fields, they are not among them, so they stay out of equality,
    hashing and repr, while pickling and copying carry them over as stored.
    """

    request: tuple[int, ...]
    alphabet: tuple[tuple[int, ...], ...]
    rng_seed: int
    crossover_fraction: float = 0.10
    mutation_fraction: float = 0.10
    parsimony_coefficient: float = 0.1
    population_floor: int = 160
    generations: int = 300
    mode: str = "discriminating"

    def _post_init(self) -> None:
        try:
            alphabet = tuple(tuple(map(index, agent)) for agent in self.alphabet)
        except TypeError:
            raise ValueError("alphabet attribute values must be integers") from None
        try:
            request = tuple(map(index, self.request))
        except TypeError:
            raise ValueError("request values must be integers") from None
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "request", request)
        if len(alphabet) < 2:
            raise ValueError(f"alphabet needs at least 2 agents, got {len(alphabet)}")
        if not all(alphabet):
            raise ValueError("agent must carry at least one attribute value")
        if not request:
            raise ValueError("request must name at least one attribute value")
        object.__setattr__(self, "gaps", _gap_table(request, alphabet))
        object.__setattr__(self, "codes", _coverage_codes(self.gaps))
        check_settings(self, len(alphabet), self.gaps)


def _check_weight_floor(settings, gaps, longest: int) -> None:
    """Reject settings under which a selection weight could leave the normal floats.

    Every raw score is at least 1 / (1 + the largest row sum of the gap
    table `gaps`); with no rows, the most lenient world, every score can
    be 1.  No member is longer than `longest` at generation 0 and each
    gains one symbol per generation at most, so every parsimony divisor is
    at most 1 + coefficient * (longest + generations).  Float rounding is
    monotone, so the weight computed here is no larger than any the run
    computes; a subnormal weight could round a roulette draw past the wheel.
    The floor binds under selection only: the nondiscriminating baseline
    draws members uniformly, weighing none.  The gap sums and the length
    bound hold in both modes, as raw fitness and lengths feed the stats.
    """
    try:
        lowest_raw = 1.0 / (1.0 + max(map(sum, gaps), default=0))
    except OverflowError:
        raise ConfigError(
            "attribute_max - attribute_min is too wide: a fitness gap sum "
            "overflows a float"
        ) from None
    bound = longest + settings.generations
    try:
        # the length penalty scales a float by the excess
        excess = float(bound)
    except OverflowError:
        raise ConfigError("generations must convert to a finite float") from None
    coefficient = settings.parsimony_coefficient
    lowest = lowest_raw / (1.0 + coefficient * excess)
    if settings.mode == "discriminating" and lowest < sys.float_info.min:
        raise ConfigError(
            f"parsimony_coefficient {coefficient} leaves a selection weight of "
            f"{lowest!r} (raw fitness down to {lowest_raw!r}, members up to "
            f"{_shown(bound, str)} symbols long), below the smallest normal "
            "float; lower it"
        )


def check_settings(settings, pool_size: int, gaps=()) -> None:
    """Reject run settings that break an invariant; messages name the key.

    The one rule set for the fields EvolutionConfig and harness.RunConfig
    share, `mode` among them; `pool_size` is the number of agents in the
    alphabet and `gaps` the world's gap table, without which the
    selection-weight floor is checked for the most lenient world: no
    world could run what it refuses.
    """
    if settings.mode not in MODES:
        raise ConfigError(
            f"mode must be one of {', '.join(MODES)}; got {_shown(settings.mode)}"
        )
    if not 0 <= settings.rng_seed < 2**64:
        raise ConfigError("rng_seed must be a 64-bit unsigned integer")
    if settings.generations < 0:
        raise ConfigError(
            f"generations must be >= 0, got {_shown(settings.generations, str)}"
        )
    for name in ("crossover_fraction", "mutation_fraction"):
        value = getattr(settings, name)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value}")
    coefficient = settings.parsimony_coefficient
    # the chained comparison is False for nan, which `< 0` would let through
    if not 0.0 <= coefficient < math.inf:
        raise ConfigError(
            f"parsimony_coefficient must be finite and >= 0, got {coefficient}"
        )
    _check_weight_floor(settings, gaps, INITIAL_LENGTH_RANGE[1])
    if settings.population_floor < pool_size:
        raise ConfigError(
            f"population_floor {_shown(settings.population_floor, str)} is "
            f"below the pool size {_shown(pool_size, str)}; length-1 sites "
            "would be unmeasurable"
        )


class EvolutionState(_Record):
    """Generation counter, current population, and the PRNG state to resume from."""

    generation: int
    population: Population
    rng_state: tuple

    def _post_init(self) -> None:
        if self.generation < 0:
            raise ValueError(f"generation must be >= 0, got {self.generation}")
        if not isinstance(self.population, Population):
            raise ValueError(
                f"population must be a Population, got {type(self.population).__name__}"
            )


class GenerationStats(_Record):
    """One row of the per-generation record.

    max_fitness and mean_fitness are raw (pre-parsimony) fitness
    statistics of the population evaluated at the start of the step; the
    remaining fields describe the population the step produced.  The
    generation-0 row measures the freshly seeded population on both
    counts.
    """

    generation: int
    max_fitness: float
    mean_fitness: float
    mean_length: float
    population_size: int
    calculable_length: int
    complexity: float
    efficiency: float

    def _post_init(self) -> None:
        if self.max_fitness < self.mean_fitness - 1e-12:
            raise ValueError("max_fitness cannot be below mean_fitness")
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")


def _gap_table(
    request: tuple[int, ...], alphabet: tuple[tuple[int, ...], ...]
) -> list[list[int]]:
    """gap[a][j]: distance from request value j to agent a's closest attribute."""
    return [
        [min(abs(wanted - value) for value in attributes) for wanted in request]
        for attributes in alphabet
    ]


def _score(symbols: tuple[int, ...], gaps: list[list[int]]) -> float:
    """Fitness of a symbol run, read from a gap table.

    The closest pooled value to each request value is the closest value
    of the best agent, so only the set of distinct agents matters.  The
    gaps stay integers until the final division, so the score is exact.
    """
    rows = [gaps[agent] for agent in set(symbols)]
    # column minima; the first row is passed twice so min always gets two values
    return 1.0 / (1.0 + sum(map(min, rows[0], *rows)))


def _coverage_codes(gaps: list[list[int]]) -> list[int]:
    """Each agent's coverage code, one int read from the gap table.

    Column j of the table gets a block of bits, one per distinct gap in
    it, in rising order; an agent sets its block's bits from its own gap's
    up.  So the OR of a member's agent codes fixes the smallest gap in each
    column, all that _score reads: equal codes give the same score, bit
    for bit.  A code has at most len(request) * pool size bits.
    """
    codes, shift = [0] * len(gaps), 0
    for column in zip(*gaps):
        ranks = {gap: rank for rank, gap in enumerate(sorted(set(column)))}
        for agent, gap in enumerate(column):
            codes[agent] |= ((1 << len(ranks)) - (1 << ranks[gap])) << shift
        shift += len(ranks)
    return codes


def _rescore(
    raw: list[float],
    members: Sequence[tuple[int, ...]],
    positions: Iterable[int],
    config: EvolutionConfig,
    known: dict,
) -> dict:
    """Set raw[i] to the fitness of members[i] for each i in `positions`.

    A member is looked up by its coverage code, the OR of its agents'
    codes: in this call's table, then in `known`, the table of the call
    before, and _score runs only for a code neither holds.  Returns this
    call's table, the code of each position it scored and its score.
    """
    codes, gaps, table = config.codes, config.gaps, {}
    for i in positions:
        symbols = members[i]
        code = reduce(or_, map(codes.__getitem__, symbols))
        # scores are positive, so a miss is the only false value
        raw[i] = table[code] = (
            table.get(code) or known.get(code) or _score(symbols, gaps)
        )
    return table


def fitness(
    symbols: tuple[int, ...],
    request: tuple[int, ...],
    alphabet: tuple[tuple[int, ...], ...],
) -> float:
    """How closely the pooled attributes of a symbol run cover the request.

    Every agent in the non-empty run contributes all of its attribute values
    to one pool; each requested value is matched against the closest
    pooled value and the absolute gaps are summed.  Returns
    1 / (1 + total gap), so exact coverage scores 1.0 and the score is
    always positive.  Raises ValueError for an empty run, and for a symbol
    that is not an agent id of the alphabet, an int in range(len(alphabet)).
    """
    if not symbols:
        raise ValueError("agent sequence must be non-empty")
    _check_symbols(symbols, len(alphabet))
    return _score(symbols, _gap_table(request, alphabet))


def parsimony_adjusted_fitness(
    raw: Sequence[float],
    lengths: Sequence[int],
    mean_length: float,
    coefficient: float,
) -> list[float]:
    """Penalise above-average length by dividing the raw fitness.

    Members at or below the population mean keep their raw score
    untouched; longer ones are divided by 1 + coefficient * excess, which
    keeps the result positive so roulette selection stays well defined.
    `raw` and `lengths` hold one value per member, in member order.
    """
    if len(raw) != len(lengths):
        raise ValueError(f"{len(raw)} fitness values for {len(lengths)} lengths")
    if not all(map((0.0).__lt__, raw)):
        raise ValueError("raw fitness values must all be positive")
    # nan fails the chained comparison; inf would make 1 + inf * 0.0 a nan
    if not 0.0 <= coefficient < math.inf:
        raise ValueError(f"coefficient must be finite and >= 0, got {coefficient}")
    # one divisor per distinct length, the same float for every member sharing it
    divisors = {
        length: 1.0 + coefficient * max(0.0, length - mean_length)
        for length in set(lengths)
    }
    return list(map(truediv, raw, map(divisors.__getitem__, lengths)))


def select(
    population: Population,
    adjusted_fitness: Sequence[float],
    target_size: int,
    rng: random.Random,
) -> list[int]:
    """Roulette-wheel sampling with replacement down (or up) to target_size.

    Each draw lands on a member with probability proportional to its
    adjusted fitness.  Non-elitist: nothing is guaranteed survival, and
    one member may be picked many times.  Returns the index in
    population.members of each draw, in draw order.
    """
    members = population.members
    if len(adjusted_fitness) != len(members):
        raise ValueError(
            f"{len(adjusted_fitness)} fitness values for {len(members)} members"
        )
    if target_size < 1:
        raise ValueError(f"target_size must be >= 1, got {target_size}")
    # `0.0 < nan` is False, so a nan weight fails here too
    if not all(map((0.0).__lt__, adjusted_fitness)):
        raise ValueError("adjusted fitness values must all be positive")
    cumulative = list(accumulate(adjusted_fitness))
    total = cumulative[-1]
    # below the smallest normal float, r * total rounds up to total for
    # many r < 1, so draws pile up past the wheel onto the last member
    if not sys.float_info.min <= total < math.inf:
        raise ValueError(
            f"adjusted fitness values must have a finite normal sum, got {total}"
        )

    # hi=last puts a draw that rounds up to the total on the last member
    last = len(members) - 1
    draw = rng.random
    return [
        bisect_right(cumulative, draw() * total, 0, last) for _ in range(target_size)
    ]


def crossover_pair(
    parent1: tuple[int, ...], parent2: tuple[int, ...], rng: random.Random
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One-point crossover at a cut both parents share.

    The cut is drawn uniformly from [1, min(len) - 1] and the tails are
    exchanged, so children are never empty and the pair conserves both
    total length and the combined symbol multiset.  Pairs containing a
    length-1 parent have no interior cut and pass through unchanged.
    """
    shorter = min(len(parent1), len(parent2))
    if shorter < 2:
        return parent1, parent2
    cut = 1 + rand_below(rng, shorter - 1)
    return parent1[:cut] + parent2[cut:], parent2[:cut] + parent1[cut:]


def mutate(
    symbols: tuple[int, ...],
    alphabet: tuple[tuple[int, ...], ...],
    rng: random.Random,
) -> tuple[int, ...]:
    """Apply one point mutation: insert, replace or delete, chosen uniformly.

    Deleting from a length-1 individual is re-mapped to replace so no
    individual ever becomes empty.  Replacement draws uniformly from the
    other alphabet symbols, so the output always differs from the input
    in exactly one edit.
    """
    size = len(alphabet)
    kind = _MUTATION_KINDS[rand_below(rng, 3)]
    if kind == "delete" and len(symbols) == 1:
        kind = "replace"
    if kind == "insert":
        position = rand_below(rng, len(symbols) + 1)
        symbol = rand_below(rng, size)
        return symbols[:position] + (symbol,) + symbols[position:]
    if kind == "replace":
        position = rand_below(rng, len(symbols))
        offset = 1 + rand_below(rng, size - 1)
        symbol = (symbols[position] + offset) % size
        return symbols[:position] + (symbol,) + symbols[position + 1 :]
    position = rand_below(rng, len(symbols))
    return symbols[:position] + symbols[position + 1 :]


def _mean(values: Sequence[float]) -> float:
    # the float statistics.fmean returns, without importing statistics
    return math.fsum(values) / len(values)


def step_generation(
    population: Population,
    config: EvolutionConfig,
    rng: random.Random,
    raw: list[float],
) -> tuple[Population, list[int], list[int]]:
    """The population of the next generation, with how the step made it.

    The order is fixed: survival draws to the dynamic target size (roulette
    selection on raw fitness, parsimony-adjusted against the current mean
    length, in the discriminating mode; uniform draws in the
    nondiscriminating baseline), one-point crossover on a random even-sized
    slice of the survivors, then single point mutations on a random slice
    of the result (crossover children included).

    `rng` is the run's live Random and `raw` the raw fitness of each member
    of `population`.  Returns the new population, `drawn`, the index in
    population.members of the member each new position was drawn as, and
    `changed`, the positions crossover and mutation rewrote: every other
    position i holds population.members[drawn[i]].  evolve, the one
    caller, checks `population` against config.alphabet, and scores,
    numbers and measures what the step makes.
    """
    alphabet = config.alphabet
    size = len(alphabet)
    members = population.members
    lengths = list(map(len, members))
    mean_length = _mean(lengths)
    # the population grows with the mean length, so site statistics keep
    # pace with the sequences
    target = max(config.population_floor, math.ceil(size * mean_length))
    if config.mode == "discriminating":
        weights = parsimony_adjusted_fitness(
            raw, lengths, mean_length, config.parsimony_coefficient
        )
        drawn = select(population, weights, target, rng)
    else:
        # a wheel of flat weights lands where rand_below does, draw for draw
        drawn = [rand_below(rng, len(members)) for _ in range(target)]
    survivors = list(map(members.__getitem__, drawn))

    paired = int(config.crossover_fraction * len(survivors))
    paired -= paired % 2
    picks = sample_indices(rng, len(survivors), paired)
    for first, second in zip(picks[::2], picks[1::2]):
        survivors[first], survivors[second] = crossover_pair(
            survivors[first], survivors[second], rng
        )

    mutated = int(config.mutation_fraction * len(survivors))
    varied = sample_indices(rng, len(survivors), mutated)
    for index in varied:
        survivors[index] = mutate(survivors[index], alphabet, rng)

    return Population._trusted(tuple(survivors), size), drawn, picks + varied


def evolve(
    config: EvolutionConfig, start: EvolutionState | None = None
) -> Iterator[tuple[EvolutionState, GenerationStats]]:
    """Iterate the generation loop from a seeded population, or from `start`.

    Without `start`, the loop seeds population_floor members, lengths
    drawn uniformly from INITIAL_LENGTH_RANGE and symbols uniformly at
    random, and yields (state, stats) for this generation 0 first.  With
    `start`, the Random continues from start.rng_state and the start
    itself is not yielded again.  Then it yields (state, stats) after each
    step, up to generation config.generations, the stats pairing the raw
    fitness of the evaluated parents with the shape of the population they
    produced.  Raises ValueError when the start's population is over
    another alphabet size than config.alphabet has, or when random.Random
    refuses start.rng_state, and ConfigError naming parsimony_coefficient
    when a start member is too long for the selection weights to stay
    normal floats.
    """
    size = len(config.alphabet)
    # the loop builds every population unchecked: generation 0 draws
    # population_floor >= 2 non-empty members, every symbol below
    # alphabet_size, and each step keeps at least as many, each drawn from
    # the last or varied below the same size
    if start is None:
        rng = random.Random(config.rng_seed)
        low, high = INITIAL_LENGTH_RANGE
        members = []
        for _ in range(config.population_floor):
            length = rand_int(rng, low, high)
            members.append(tuple(rand_below(rng, size) for _ in range(length)))
        population = Population._trusted(tuple(members), size)
        first = 0
    else:
        population = start.population
        if population.alphabet_size != size:
            raise ValueError("the start's population is not over the config's alphabet")
        # a hand-built start may hold members longer than the config's floor covers
        longest = max(map(len, population.members)) - start.generation
        _check_weight_floor(config, config.gaps, max(longest, INITIAL_LENGTH_RANGE[1]))
        rng = random.Random()
        try:
            rng.setstate(start.rng_state)
        except (LookupError, TypeError, ValueError, OverflowError):
            raise ValueError(
                "rng_state is not a state random.Random.setstate accepts"
            ) from None
        first = start.generation + 1
    # the first population is scored member by member, from an empty table
    raw = [0.0] * len(population)
    known = _rescore(raw, population.members, range(len(raw)), config, {})
    # generation 0 alone is seeded, not stepped: a start yields from after it
    for generation in range(first, config.generations + 1):
        parents = raw
        if generation:
            # module-global lookups, so wrappers see each generation
            population, drawn, changed = step_generation(population, config, rng, raw)
            # survivors keep their draws' raw fitness; only changed ones are rescored
            raw = list(map(raw.__getitem__, drawn))
            known = _rescore(raw, population.members, changed, config, known)
            del drawn, changed
        # never unmeasurable: check_settings keeps population_floor >= the pool size
        report = physical_complexity_variable(population)
        yield EvolutionState(generation, population, rng.getstate()), GenerationStats(
            generation=generation,
            max_fitness=max(parents),
            mean_fitness=_mean(parents),
            mean_length=_mean(list(map(len, population.members))),
            population_size=len(population),
            calculable_length=report.calculable_length,
            complexity=report.complexity,
            efficiency=report.efficiency,
        )
