"""Domain types for populations of agent sequences.

An alphabet is the global pool of agents available to a system, a tuple
of agents, each agent the tuple of its attribute values and its id its
position in the pool; an individual is a non-empty tuple of agent ids,
nothing more, since the measures read a population as an ensemble of
symbol strings.
A Population is a non-empty multiset of those tuples and the size of
the alphabet they are drawn from, the one thing the measures need of it.
Everything here is an immutable value object so populations can be
copied, hashed and compared structurally.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain
from operator import index

__all__ = [
    "Population",
]


class _Record:
    """An immutable value whose fields are its class annotations, in order.

    Each subclass gets a constructor that takes its fields in that order,
    with the defaults its class body gives them, stores them and calls
    _post_init to normalise and check them.  Equality, hashing and repr go
    by the fields alone; assigning or deleting an attribute afterwards
    raises AttributeError.  Pickling and copying restore the attributes
    as stored, without running the constructor again.
    """

    _fields = ()  # set on each subclass

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        # a generated constructor keeps the real signature, so a missing or
        # unknown argument fails as for any function; Python rejects a
        # field without a default after one with a default
        params = ", ".join(
            f"{name}=cls.{name}" if name in cls.__dict__ else name
            for name in cls._fields
        )
        body = "".join(f"\n    store(self, {name!r}, {name})" for name in cls._fields)
        scope = {"cls": cls, "store": object.__setattr__}
        exec(f"def __init__(self, {params}):{body}\n    self._post_init()", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _post_init(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _is_agent_id(symbol, size: int) -> bool:
    """An integer (as operator.index takes it) in 0 .. size - 1."""
    try:
        return 0 <= index(symbol) < size
    except TypeError:
        return False


class Population(_Record):
    """A non-empty multiset of agent sequences over alphabet_size agents.

    Each member is a non-empty tuple of agent ids; the constructor turns
    any rows of ints into such tuples.  The size bounds the symbols and is
    the base of every entropy measured over the members.  Member order
    carries no meaning; it is preserved only so that simulations replay
    byte-for-byte.  Every metric treats the members as an unordered
    collection.
    """

    members: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def _post_init(self) -> None:
        members = tuple(map(tuple, self.members))
        object.__setattr__(self, "members", members)
        size = self.alphabet_size
        if size < 2:
            raise ValueError(f"alphabet needs at least 2 agents, got {size}")
        if not members:
            raise ValueError("population needs at least one member")
        if not all(members):
            raise ValueError("agent sequence must be non-empty")
        # one C-speed pass collects the distinct symbols as integers (a set of
        # the symbols themselves would let 1.0 hide behind an equal 1); only
        # failing members are walked, so the message names the first bad one
        try:
            distinct = set(map(index, chain.from_iterable(members)))
            valid = min(distinct) >= 0 and max(distinct) < size
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
        read_population_file checks each distinct symbol it read, and
        neither builds an empty population; the constructor and from_rows,
        which take outside input, keep the checks.
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
