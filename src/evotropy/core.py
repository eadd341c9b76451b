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

import sys
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import index

__all__ = [
    "ConfigError",
    "Population",
]

# characters of an input that an error message shows at most
_SHOWN = 40


class ConfigError(ValueError):
    """Bad configuration text or field values; messages name the key or field."""


def _digit_limit(text: str) -> str:
    """' of at most <limit> digits' when `text` holds more digits than
    CPython's int() converts from text (sys.get_int_max_str_digits, where
    0 or its absence means no limit), else ''."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < limit < sum(map(str.isdecimal, text)):
        return f" of at most {limit} digits"
    return ""


def _shown(value, form=repr, render=str) -> str:
    """form(render(value)) for an error message, or, when that text is
    longer than _SHOWN characters, form of its first _SHOWN and its length.
    An int that render refuses is named by CPython's digit limit instead."""
    try:
        text = render(value)
    except ValueError:
        # only an int past sys.get_int_max_str_digits() refuses str and repr
        return f"an integer of more than {sys.get_int_max_str_digits()} digits"
    if len(text) <= _SHOWN:
        return form(text)
    return f"{form(text[:_SHOWN])}... ({len(text)} characters)"


def _real_number(value) -> float:
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError  # float() would parse text too
    return float(value)


def _text(value) -> str:
    if isinstance(value, str):
        return str(value)
    raise TypeError


# each record field kind's one stored form, the parser that reads it from
# config text, and what an error message says the field expects
_KINDS = {
    "int": (index, int, "an integer"),
    "float": (_real_number, float, "a real number"),
    "str": (_text, str, "text"),
}


def _settle(name: str, kind: str, value):
    """`value` in the one form of its field's kind: an int as operator.index
    gives it (True as 1), a real number as a float, text as a str.  Raises
    ConfigError naming the field otherwise."""
    form, _, expected = _KINDS[kind]
    try:
        return form(value)
    except (TypeError, OverflowError):
        raise ConfigError(
            f"{name} expects {expected}, got {_shown(value, str, repr)}"
        ) from None


def _check_symbols(symbols: Iterable, size: int) -> None:
    """Raise ValueError naming the first symbol that is no agent id, an int
    as operator.index reads it (True as 1) in range(size)."""
    for symbol in symbols:
        try:
            if 0 <= index(symbol) < size:
                continue
        except TypeError:
            pass
        raise ValueError(
            f"symbol {_shown(symbol, str, repr)} is not a valid agent id for "
            f"an alphabet of size {size}"
        )


class _Record:
    """An immutable value whose fields are its class annotations, in order.

    Each subclass gets a constructor that takes its fields in that order,
    with the defaults its class body gives them, stores them, each int,
    float and str field through _settle, and calls _post_init to
    normalise and check the rest.  Equality, hashing and repr go
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
        # an int, float or str field is stored in its kind's one form
        body = "".join(
            f"\n    store(self, {name!r}, settle({name!r}, {kind!r}, {name}))"
            if kind in _KINDS
            else f"\n    store(self, {name!r}, {name})"
            for name, kind in cls.__annotations__.items()
        )
        scope = {"cls": cls, "store": object.__setattr__, "settle": _settle}
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


class Population(_Record):
    """A non-empty multiset of agent sequences over alphabet_size agents.

    Each member is a non-empty tuple of agent ids; the constructor turns
    any rows of integers into such tuples, each id the int operator.index
    gives (True as 1).  The size bounds the symbols and is
    the base of every entropy measured over the members.  Member order
    carries no meaning; it is preserved only so that simulations replay
    byte-for-byte.  Every metric treats the members as an unordered
    collection.
    """

    members: tuple[tuple[int, ...], ...]
    alphabet_size: int

    def _post_init(self) -> None:
        members = tuple(map(tuple, self.members))
        size = self.alphabet_size
        if size < 2:
            raise ValueError(f"alphabet needs at least 2 agents, got {size}")
        if not members:
            raise ValueError("population needs at least one member")
        if not all(members):
            raise ValueError("agent sequence must be non-empty")
        _check_symbols(chain.from_iterable(members), size)
        # a symbol that is no int, True say, is stored as the int it stands for
        members = tuple(tuple(map(index, member)) for member in members)
        object.__setattr__(self, "members", members)

    @classmethod
    def _trusted(
        cls, members: tuple[tuple[int, ...], ...], alphabet_size: int
    ) -> "Population":
        """Build without the checks, for members known to be valid.

        The generation loop draws every symbol below alphabet_size, for
        generation 0 and at each step, and read_population_file checks each
        distinct symbol it read, and neither builds an empty population;
        the constructor and from_rows, which take outside input, keep the
        checks.
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
