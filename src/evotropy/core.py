"""Domain types for populations of agent sequences.

An Alphabet is the global pool of agents available to a system; an
individual is a non-empty tuple of agent ids, nothing more, since the
measures read a population as an ensemble of symbol strings.  A
Population is a multiset of those tuples together with the size of the
alphabet they are drawn from, the one thing the measures need of it.
Everything here is an immutable value object so populations can be
copied, hashed and compared structurally.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import index
from typing import Iterable, Sequence

__all__ = [
    "Agent",
    "Alphabet",
    "Population",
    "UserRequest",
]


@dataclass(frozen=True)
class Agent:
    """One agent: an alphabet symbol carrying its service attribute values."""

    id: int
    attributes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "attributes", tuple(self.attributes))
        if self.id < 0:
            raise ValueError(f"agent id must be non-negative, got {self.id}")
        if not self.attributes:
            raise ValueError("agent must carry at least one attribute value")


@dataclass(frozen=True)
class Alphabet:
    """Ordered pool of distinct agents.

    Agent ids double as indices into the pool, and the pool size is the
    base of every entropy computed over populations drawn from it.
    """

    agents: tuple[Agent, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "agents", tuple(self.agents))
        if len(self.agents) < 2:
            raise ValueError(
                f"alphabet needs at least 2 agents, got {len(self.agents)}"
            )
        for index, agent in enumerate(self.agents):
            if agent.id != index:
                raise ValueError(
                    f"agent at position {index} has id {agent.id}; "
                    "ids must equal their pool position"
                )

    @property
    def size(self) -> int:
        return len(self.agents)

    def __len__(self) -> int:
        return len(self.agents)


def _is_agent_id(symbol, size: int) -> bool:
    """An integer (as operator.index takes it) in 0 .. size - 1."""
    try:
        return 0 <= index(symbol) < size
    except TypeError:
        return False


@dataclass(frozen=True)
class Population:
    """A multiset of agent sequences over an alphabet of alphabet_size agents.

    Each member is a non-empty tuple of agent ids; the constructor turns
    any rows of ints into such tuples.  The size bounds the symbols and is
    the base of every entropy measured over the members.  Member order
    carries no meaning; it is preserved only so that simulations replay
    byte-for-byte.  Every metric treats the members as an unordered
    collection.
    """

    members: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        members = tuple(map(tuple, self.members))
        object.__setattr__(self, "members", members)
        size = self.alphabet_size
        if size < 2:
            raise ValueError(f"alphabet needs at least 2 agents, got {size}")
        if not all(members):
            raise ValueError("agent sequence must be non-empty")
        # one C-speed pass collects the distinct symbols as integers (a set of
        # the symbols themselves would let 1.0 hide behind an equal 1); only
        # failing members are walked, so the message names the first bad one
        try:
            distinct = set(map(index, chain.from_iterable(members)))
            valid = not distinct or (min(distinct) >= 0 and max(distinct) < size)
        except TypeError:
            valid = False
        if not valid:
            bad = next(
                symbol
                for member in members
                for symbol in member
                if not _is_agent_id(symbol, size)
            )
            raise ValueError(
                f"symbol {bad} is not a valid agent id for an alphabet of size {size}"
            )

    @classmethod
    def _trusted(
        cls, members: tuple[tuple[int, ...], ...], alphabet_size: int
    ) -> "Population":
        """Build without the checks, for members known to be valid.

        The generation loop draws every symbol below alphabet_size and
        read_population_file checks each distinct symbol it read; the
        constructor and from_rows, which take outside input, keep the checks.
        """
        population = object.__new__(cls)
        object.__setattr__(population, "members", members)
        object.__setattr__(population, "alphabet_size", alphabet_size)
        return population

    @classmethod
    def from_rows(
        cls, alphabet_size: int, rows: Iterable[Sequence[int]]
    ) -> "Population":
        """Build a population from plain integer rows, one member per row."""
        return cls(rows, alphabet_size)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class UserRequest:
    """The attribute values an evolved sequence is asked to provide."""

    required: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "required", tuple(self.required))
        if not self.required:
            raise ValueError("request must name at least one attribute value")

