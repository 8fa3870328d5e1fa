"""Named tree families: constructors, parameter checks and text forms.

Constructors for the parametrized families used throughout the library:

* ``path`` / ``star`` - P_n and S_n.
* ``spider`` - the balanced spider S_{n,r}: r pendent paths of nearly
  equal lengths at a common center (r*floor((n-1)/r) legs rounded so the
  lengths differ by at most one).  S_{n,n-1} is the star, S_{n,2} the
  path.
* ``cat`` - the spine caterpillar T(d_1, ..., d_z): a spine of z >= 2
  vertices whose j-th vertex has total degree d_j, every other vertex a
  leaf hanging off the spine.  The order is derived from the degrees:
  n = sum(d) - z + 2.
* ``C`` - C(n, a, b): a path v_1..v_{n-a-b} with one pendant at each of
  v_2..v_{a+1} and each of v_{n-a-2b}..v_{n-a-b-1}.  C(n, 0, 0) = P_n.
* ``F`` - F(n, a, b): a path v_1..v_{n-a-b-2} with two pendants at v_2,
  one pendant at each of v_3..v_{a+2} and each of
  v_{n-a-2b-2}..v_{n-a-b-3}.
* ``srk`` - S^r(n, k): k pendent paths of length r plus n-k*r-1 pendent
  edges at a common center.
* ``A`` - A^r(n, a, b): a path with a pendent paths of length r at one
  end and b at the other.

Labeling is deterministic and lives in ``_grow`` alone: the spine path
0..spine-1 first (the lone center for stars, spiders and S^r), then each
pendent path ("leg") in definition order, numbered on from the last id.
Golden files are reproducible; isomorphism checks absorb the rest.
The family claimed to be extremal over each tree class is named in the
verify module, beside the claims that use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Optional

from .tree import _MAX_N, Tree

__all__ = ["FamilySpec", "ParameterError", "build", "parse_family_spec"]


class ParameterError(ValueError):
    """Family parameters violate the construction's preconditions."""


@dataclass(frozen=True)
class FamilySpec:
    """Tagged parameter record naming one family instance.

    Only the fields that the kind uses are set; ``build`` validates the
    parameter ranges and raises :class:`ParameterError` otherwise.
    """

    kind: str
    n: Optional[int] = None
    r: Optional[int] = None
    a: Optional[int] = None
    b: Optional[int] = None
    k: Optional[int] = None
    degrees: Optional[tuple[int, ...]] = None

    @classmethod
    def path(cls, n: int) -> "FamilySpec":
        return cls("path", n=n)

    @classmethod
    def star(cls, n: int) -> "FamilySpec":
        return cls("star", n=n)

    @classmethod
    def spider(cls, n: int, r: int) -> "FamilySpec":
        return cls("spider", n=n, r=r)

    @classmethod
    def caterpillar(cls, degrees) -> "FamilySpec":
        return cls("cat", degrees=tuple(degrees))

    @classmethod
    def c(cls, n: int, a: int, b: int) -> "FamilySpec":
        return cls("C", n=n, a=a, b=b)

    @classmethod
    def f(cls, n: int, a: int, b: int) -> "FamilySpec":
        return cls("F", n=n, a=a, b=b)

    @classmethod
    def srk(cls, n: int, k: int, r: int) -> "FamilySpec":
        return cls("srk", n=n, k=k, r=r)

    @classmethod
    def a_family(cls, n: int, r: int, a: int, b: int) -> "FamilySpec":
        return cls("A", n=n, r=r, a=a, b=b)

    def to_text(self) -> str:
        """Canonical text form, e.g. ``C:n=7,a=1,b=1`` or ``cat:d=4,3,2``."""
        if self.kind == "cat":
            return "cat:d=" + ",".join(str(d) for d in self.degrees)
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        return f"{self.kind}:" + ",".join(f"{p}={getattr(self, p)}" for p in _KINDS[self.kind][1])

    def __str__(self) -> str:
        return self.to_text()


def parse_family_spec(text: str) -> FamilySpec:
    """Parse the canonical text form produced by :meth:`FamilySpec.to_text`."""
    head, _, rest = text.partition(":")
    kind = head.strip()
    matched = next((k for k in _KINDS if k.lower() == kind.lower()), None)
    if matched is None:
        raise ParameterError(f"unknown family kind {kind!r}; expected one of {tuple(_KINDS)}")
    kind = matched
    if kind == "cat":
        if not rest.startswith("d="):
            raise ParameterError("caterpillar spec must look like cat:d=4,3,2")
        try:
            degrees = tuple(int(v) for v in rest[2:].split(","))
        except ValueError:
            raise ParameterError(f"bad caterpillar degrees in {text!r}") from None
        return FamilySpec.caterpillar(degrees)
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key in params:  # a key the kind does not take is named below
                raise ParameterError(f"family parameter {key!r} given twice in {text!r}")
            try:
                params[key] = int(value)
            except ValueError:
                raise ParameterError(f"non-integer value for {key!r} in {text!r}") from None
    required = _KINDS[kind][1]
    missing = [p for p in required if p not in params]
    if missing:
        raise ParameterError(f"{kind} spec is missing parameters {missing}")
    extra = set(params) - set(required)
    if extra:
        raise ParameterError(f"{kind} spec does not take parameters {sorted(extra)}")
    return FamilySpec(kind, **params)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ParameterError(message)


def _grow(n: int, legs: Iterable[tuple[int, int]], edges: Iterable[tuple[int, int]] = ()) -> Tree:
    """Hang each ``(anchor, length)`` leg in turn as a pendent path of new ids.

    New ids follow those of ``edges`` (default: vertex 0 alone), so a
    family's first leg ``(0, spine - 1)`` lays down its spine 0..spine-1.
    """
    edges = list(edges)
    nxt = len(edges) + 1
    for anchor, length in legs:
        prev = anchor
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(n, edges)


def _build_path(n: int) -> Tree:
    _require(n >= 1, f"path requires n >= 1, got n={n}")
    return _grow(n, [(0, n - 1)])


def _build_star(n: int) -> Tree:
    _require(n >= 2, f"star requires n >= 2, got n={n}")
    return _grow(n, [(0, 1)] * (n - 1))


def _build_spider(n: int, r: int) -> Tree:
    _require(2 <= r <= n - 1, f"spider requires 2 <= r <= n-1, got n={n}, r={r}")
    q, t = divmod(n - 1, r)
    return _grow(n, [(0, q + 1)] * t + [(0, q)] * (r - t))


def _build_caterpillar(degrees: tuple[int, ...]) -> Tree:
    z = len(degrees)
    _require(z >= 2, f"caterpillar spine needs z >= 2 vertices, got {z}")
    _require(all(d >= 2 for d in degrees),
             f"caterpillar spine degrees must all be >= 2, got {degrees}")
    legs = [(0, z - 1)]
    for j, d in enumerate(degrees):
        legs += [(j, 1)] * (d - 2 + (j == 0) + (j == z - 1))
    return _grow(sum(degrees) - z + 2, legs)


def _build_c(n: int, a: int, b: int) -> Tree:
    _require(a >= 0 and b >= 0, f"C requires a, b >= 0, got a={a}, b={b}")
    _require(n >= 2, f"C requires n >= 2, got n={n}")
    _require(2 * (a + b) <= n - 1, f"C requires 2*(a+b) <= n-1, got n={n}, a={a}, b={b}")
    _require(a + 1 < n - a - 2 * b,
             f"C attachment windows must be disjoint (a+1 < n-a-2b), got n={n}, a={a}, b={b}")
    hosts = list(range(2, a + 2)) + list(range(n - a - 2 * b, n - a - b))
    return _grow(n, [(0, n - a - b - 1)] + [(i - 1, 1) for i in hosts])  # v_i is vertex i-1


def _build_f(n: int, a: int, b: int) -> Tree:
    _require(a >= 0 and b >= 0, f"F requires a, b >= 0, got a={a}, b={b}")
    _require(2 * (a + b) <= n - 5, f"F requires 2*(a+b) <= n-5, got n={n}, a={a}, b={b}")
    hosts = [2] + list(range(2, a + 3)) + list(range(n - a - 2 * b - 2, n - a - b - 2))
    return _grow(n, [(0, n - a - b - 3)] + [(i - 1, 1) for i in hosts])


def _srk_in_range(n: int, k: int, r: int) -> bool:
    return (k == 1 and 2 <= r <= n - 3) or (k >= 2 and r >= 2 and k * r <= n - 2)


def _build_srk(n: int, k: int, r: int) -> Tree:
    _require(_srk_in_range(n, k, r),
             "srk requires (k=1 and 2 <= r <= n-3) or (k >= 2, r >= 2, k*r <= n-2), "
             f"got n={n}, k={k}, r={r}")
    return _grow(n, [(0, r)] * k + [(0, 1)] * (n - k * r - 1))


def _build_a(n: int, r: int, a: int, b: int) -> Tree:
    _require(a >= b >= 0 and a >= 1, f"A requires a >= b >= 0 and a >= 1, got a={a}, b={b}")
    _require(r >= 1, f"A requires r >= 1, got r={r}")
    _require((a + b) * r <= n - 2, f"A requires (a+b)*r <= n-2, got n={n}, r={r}, a={a}, b={b}")
    end = n - (a + b) * r - 1  # the spine's last vertex
    return _grow(n, [(0, end)] + [(0, r)] * a + [(end, r)] * b)


# Each kind's builder and the FamilySpec fields it takes, in argument
# order; a kind's text form lists the same fields (``cat`` as ``d=``).
_KINDS = {
    "path": (_build_path, ("n",)),
    "star": (_build_star, ("n",)),
    "spider": (_build_spider, ("n", "r")),
    "cat": (_build_caterpillar, ("degrees",)),
    "C": (_build_c, ("n", "a", "b")),
    "F": (_build_f, ("n", "a", "b")),
    "srk": (_build_srk, ("n", "k", "r")),
    "A": (_build_a, ("n", "r", "a", "b")),
}


def build(spec: FamilySpec) -> Tree:
    """Construct the tree named by ``spec``.

    Raises :class:`ParameterError` naming the violated constraint when
    the parameters are out of range, or naming the field when one that
    the kind takes is missing or not an integer, or the order is past ``_MAX_N``.
    """
    if spec.kind not in _KINDS:
        raise ParameterError(f"unknown family kind {spec.kind!r}")
    builder, fields = _KINDS[spec.kind]
    args = [_field(spec, p) for p in fields]
    n = sum(spec.degrees) - len(spec.degrees) + 2 if spec.kind == "cat" else args[0]
    _require(n <= _MAX_N, f"{spec.kind} order {n} exceeds {_MAX_N}, the largest a tree holds")
    return builder(*args)


def _integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _field(spec: FamilySpec, name: str):
    """The spec's ``name`` field, checked to be an integer (``degrees``: a
    sequence of integers); a missing, float or bool value is rejected."""
    value = getattr(spec, name)
    if name == "degrees":
        if not isinstance(value, (tuple, list)) or not all(map(_integer, value)):
            raise ParameterError(f"{spec.kind} requires degrees as a sequence of integers, "
                                 f"got degrees={value!r}")
    elif not _integer(value):
        raise ParameterError(f"{spec.kind} requires an integer {name}, got {name}={value!r}")
    return value
