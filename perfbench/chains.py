"""Seeded scenario text for the ``generated-chains`` workload.

Each scenario holds one random chain ``g`` of Nielsen generators at rank 4-8
(half written as a product of ``L/R/C/P/I``, half as an image block whose
images are computed here) and a second chain ``h``.  Every assertion's
expected answer follows from construction:

* ``g^-1 * g == id``, ``g * g^-1 == id`` and ``(g * h)^-1 == h^-1 * g^-1``;
* ``det g`` is the parity of the ``P``/``I`` factors;
* ``g * P(1,2) * g^-1`` has order 2 and ``g * f * g^-1`` has order r, with
  ``f`` the rotation of the r-petal rose;
* ``g * C(2,1) * ... * C(r,1) * g^-1`` is conjugation by ``g(x1)``, so it is
  inner: outer order 1 and ``~ id``;
* ``g * L(1,2) * g^-1`` has infinite order, so ``order`` reads ``unbounded``.

The arithmetic below is a few lines of free reduction of its own, so the
expected answers never come from the code under test.  A chain is redrawn
when an image that ``order`` inspects would pass the default 4096-letter
cap, because the cap would then turn ``order ... == 2`` into a wrong verdict.

Run ``python3 perfbench/chains.py SEED`` to print the text for one seed.
"""

from __future__ import annotations

import random
import sys

CAP = 4096
KINDS = "LRCPI"
SCENARIOS = 24
FACTORS = (12, 20)
RANKS = (4, 8)
# Bands on total image letters of g, of h and of g * h.  They keep the work
# of one seed close to that of another, so seeds change inputs, not cost:
# before the bands, a chain's replay time tracked the letters of g and of
# g * h (correlation 0.36 and 0.51 over 100 chains of seeds 1-5), and those
# ran from 60 to 143 and from 188 to 2584 letters.  The bands exclude no
# chain for failing: a chain on which nielsen_reduce stalls has 75 letters.
BAND = (70, 100)
H_BAND = (60, 80)
PRODUCT_BAND = (400, 900)
UNBOUNDED_EVERY = 8
# Letters that ``order`` writes before the cap trips on g * L(1,2) * g^-1;
# the band keeps each cap-path assertion near a tenth of a second of work.
CAP_PATH_WORK = (1_000_000, 1_400_000)
MAX_POWER = 256

Word = tuple[int, ...]
Images = tuple[Word, ...]


def reduce(letters) -> Word:
    out: list[int] = []
    for a in letters:
        if out and out[-1] == -a:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inverse(w: Word) -> Word:
    return tuple(-a for a in reversed(w))


def apply(f: Images, w: Word) -> Word:
    letters: list[int] = []
    for a in w:
        letters.extend(f[a - 1] if a > 0 else inverse(f[-a - 1]))
    return reduce(letters)


def compose(f: Images, g: Images) -> Images:
    """Images of f * g, which applies g first."""
    return tuple(apply(f, w) for w in g)


def identity(rank: int) -> Images:
    return tuple((i,) for i in range(1, rank + 1))


def factor_images(kind: str, i: int, j: int, rank: int, sign: int = 1) -> Images:
    """Images of one named generator, or of its inverse when sign is -1."""
    images = list(identity(rank))
    xj = (j,) if sign > 0 else (-j,)
    if kind == "L":
        images[i - 1] = reduce(xj + (i,))
    elif kind == "R":
        images[i - 1] = reduce((i,) + xj)
    elif kind == "C":
        images[i - 1] = reduce(xj + (i,) + inverse(xj))
    elif kind == "P":
        images[i - 1], images[j - 1] = (j,), (i,)
    else:
        images[i - 1] = (-i,)
    return tuple(images)


def images(factors, rank: int) -> Images:
    """Images of the written product: one image changes per factor."""
    g = list(identity(rank))
    for kind, i, j in factors:
        a, b = g[i - 1], g[j - 1]
        if kind == "L":
            g[i - 1] = reduce(b + a)
        elif kind == "R":
            g[i - 1] = reduce(a + b)
        elif kind == "C":
            g[i - 1] = reduce(b + a + inverse(b))
        elif kind == "P":
            g[i - 1], g[j - 1] = b, a
        else:
            g[i - 1] = inverse(a)
    return tuple(g)


def inverse_images(factors, rank: int) -> Images:
    """Images of the product of the inverse factors in reverse order."""
    gi = identity(rank)
    for kind, i, j in factors:
        gi = compose(factor_images(kind, i, j, rank, -1), gi)
    return gi


def conjugate(g: Images, f: Images, gi: Images) -> Images:
    return compose(g, compose(f, gi))


def rotation(rank: int, k: int = 1) -> Images:
    """Images of the k-th power of x_i -> x_{i+1}, x_r -> x_1."""
    return tuple(((i + k - 1) % rank + 1,) for i in range(1, rank + 1))


def max_len(f: Images) -> int:
    return max(len(w) for w in f)


def format_word(w: Word) -> str:
    if not w:
        return "e"
    parts = []
    k = 0
    while k < len(w):
        run = 1
        while k + run < len(w) and w[k + run] == w[k]:
            run += 1
        power = run if w[k] > 0 else -run
        parts.append(f"x{abs(w[k])}" + ("" if power == 1 else f"^{power}"))
        k += run
    return " ".join(parts)


def format_factor(kind: str, i: int, j: int) -> str:
    return f"I({i})" if kind == "I" else f"{kind}({i},{j})"


def draw_factors(rng: random.Random, rank: int, count: int):
    factors = []
    for _ in range(count):
        kind = rng.choice(KINDS)
        i, j = rng.sample(range(1, rank + 1), 2)
        factors.append((kind, i, j))
    return factors


def cap_path_work(g: Images, gi: Images, rank: int) -> int:
    """Letters ``order`` writes while powering h = g * L(1,2) * g^-1 until
    an image passes the cap or the power cap is reached.

    The images of h^k = g * L(1,2)^k * g^-1 grow linearly in k, so the counts
    at k = 1 and k = 2 fix them for every k.  Composing h with h^k writes,
    for each letter of h^k, one image of h.
    """

    def shift(k: int) -> Images:
        return ((2,) * k + (1,),) + identity(rank)[1:]

    h1 = conjugate(g, shift(1), gi)
    h2 = conjugate(g, shift(2), gi)
    lens = [len(w) for w in h1]
    n1 = [sum(1 for w in h1 for a in w if abs(a) == j) for j in range(1, rank + 1)]
    n2 = [sum(1 for w in h2 for a in w if abs(a) == j) for j in range(1, rank + 1)]
    step = max_len(h2) - max_len(h1)
    work = 0
    for k in range(1, MAX_POWER + 1):
        if max_len(h1) + step * (k - 1) > CAP:
            break
        work += sum((n1[j] + (n2[j] - n1[j]) * (k - 1)) * lens[j] for j in range(rank))
    return work


def total(f: Images) -> int:
    return sum(len(w) for w in f)


def draw_chain(rng, rank, count, band, right=None, cap_path=False):
    """A chain whose image length sits in ``band`` and whose conjugates stay
    under the cap for every power that ``order`` inspects.  With ``right``
    the product with it keeps its length in its band too, and with
    ``cap_path`` the work of the unbounded ``order`` stays in its band."""
    while True:
        factors = draw_factors(rng, rank, count)
        g = images(factors, rank)
        if not band[0] <= total(g) <= band[1]:
            continue
        if right is not None and not (
            PRODUCT_BAND[0] <= total(compose(g, right)) <= PRODUCT_BAND[1]
        ):
            continue
        gi = inverse_images(factors, rank)
        if cap_path and not (
            CAP_PATH_WORK[0] <= cap_path_work(g, gi, rank) <= CAP_PATH_WORK[1]
        ):
            continue
        inspected = [factor_images("P", 1, 2, rank)]
        inspected += [rotation(rank, k) for k in range(1, rank)]
        if all(max_len(conjugate(g, f, gi)) <= CAP for f in inspected):
            return factors, g


def scenario(rng: random.Random, name: str, slot: int) -> str:
    """Text of one scenario; the slot fixes its rank, form and cap path."""
    rank = RANKS[0] + slot % (RANKS[1] - RANKS[0] + 1)
    cap_path = slot % UNBOUNDED_EVERY == UNBOUNDED_EVERY - 1
    h_factors, h = draw_chain(rng, rank, FACTORS[0], H_BAND)
    factors, g = draw_chain(rng, rank, rng.randint(*FACTORS), BAND, h, cap_path)
    parity = sum(1 for kind, _, _ in factors if kind in "PI") % 2
    lines = [f"scenario {name}", f"rank {rank}", ""]
    lines += ["graph X = rose(%d)" % rank, "gaut rot = rotation on X",
              "aut f = induced rot at v0"]
    if slot % 2 == 0:
        lines.append("aut g = " + " * ".join(format_factor(*f) for f in factors))
    else:
        body = "; ".join(f"x{i + 1} -> {format_word(w)}" for i, w in enumerate(g))
        lines.append(f"aut g {{ {body} }}")
    lines.append("aut h = " + " * ".join(format_factor(*f) for f in h_factors))
    inner = " * ".join(f"C({i},1)" for i in range(2, rank + 1))
    lines.append(f"aut c = g * {inner} * g^-1")
    asserts = [
        "assert g^-1 * g == id",
        "assert g * g^-1 == id",
        "assert (g * h)^-1 == h^-1 * g^-1",
        f"assert det g == {-1 if parity else 1}",
        "assert order g * P(1,2) * g^-1 == 2",
        f"assert order g * f * g^-1 == {rank}",
        "assert outorder c == 1",
        "assert c ~ id",
        f"assert g maps x1 -> {format_word(g[0])}",
    ]
    if cap_path:
        asserts.append("assert order g * L(1,2) * g^-1 == unbounded")
    return "\n".join(lines + asserts) + "\n"


def generate(seed: int) -> list[tuple[str, str]]:
    """(name, text) for every scenario of one seed; same seed, same bytes."""
    rng = random.Random(seed)
    names = [f"chain-{slot:02d}" for slot in range(SCENARIOS)]
    return [(name, scenario(rng, name, slot)) for slot, name in enumerate(names)]


if __name__ == "__main__":
    for _, text in generate(int(sys.argv[1]) if len(sys.argv) > 1 else 0):
        print(text)
