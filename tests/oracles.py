"""Independent brute-force oracles used to freeze expected values in tests.

Every function here recomputes a quantity the package computes, by a
deliberately different route:

* box counts via exact-rational interval membership instead of digit-prefix
  ranking;
* digital-net witnesses via per-shape Gaussian elimination on the generating
  matrices a net was built from, instead of a basis recovered from its points
  and eliminated for many shapes at once;
* the witness of any point set via dictionary tallies of box index vectors
  read digit by digit, instead of prefix tables, or ranks plus a correction;
* array uniformity via dictionary tallies over itertools enumeration instead
  of vectorized bincounts;
* row-count bounds via generating-polynomial coefficients instead of
  composition recursion, and sequence budgets via bitmask subsets instead of
  combinations by size;
* character sums via scalar cmath loops, and their exact vanishing via
  cyclotomic polynomials built from the Moebius product formula and plain long
  division, instead of integer exponent matrices folded by rad(q);
* text formats read and written line by line with str methods instead of
  whole-body numpy arrays;
* the existence search by a rescan of every candidate's box counts at every
  node instead of a bitset of free candidates updated as boxes fill.

Oracles accept plain data (digit arrays, row lists) so they never call back
into package logic beyond raw attribute access.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# shapes and box counts (exact rational geometry)

def brute_shapes(m: int, u: int, e, variant: str = "narrow", mode: str = "all"):
    """All admissible depth shapes by exhaustive product-and-filter."""
    budget = m - u
    axes = [range(0, m + 1, ei) for ei in e]
    out = []
    for d in itertools.product(*axes):
        total = sum(d)
        if variant == "narrow":
            if total > budget:
                continue
        else:  # tezuka: exact budget only
            if total != budget:
                continue
        if mode == "maximal" and any(total + ei <= budget for ei in e):
            continue
        out.append(tuple(d))
    return sorted(out)


def coord_fractions(points):
    """Coordinate values as exact rationals, recomputed digit by digit."""
    b = points.base
    n_pts, s, m = points.digits.shape
    vals = []
    for n in range(n_pts):
        row = []
        for i in range(s):
            num = 0
            for l in range(m):
                num = num * b + int(points.digits[n, i, l])
            row.append(Fraction(num, b ** m) if m else Fraction(0))
        vals.append(row)
    return vals


def brute_count_box(points, shape, index) -> int:
    """Membership count for one elementary box, by interval comparison."""
    b = points.base
    vals = coord_fractions(points)
    lo = [Fraction(int(a), b ** int(d)) for a, d in zip(index, shape)]
    hi = [Fraction(int(a) + 1, b ** int(d)) for a, d in zip(index, shape)]
    hits = 0
    for row in vals:
        if all(l <= x < h for x, l, h in zip(row, lo, hi)):
            hits += 1
    return hits


def brute_verify_net(points, u: int, e, variant: str = "narrow",
                     mode: str = "all") -> bool:
    """Equidistribution check over every admissible box, geometrically."""
    b = points.base
    m = points.precision
    if points.count != b ** m:
        raise ValueError("point count must be base**precision")
    vals = coord_fractions(points)
    for shape in brute_shapes(m, u, e, variant, mode):
        expected = Fraction(points.count, b ** sum(shape))
        for index in itertools.product(*(range(b ** d) for d in shape)):
            lo = [Fraction(a, b ** d) for a, d in zip(index, shape)]
            hi = [Fraction(a + 1, b ** d) for a, d in zip(index, shape)]
            hits = sum(
                1 for row in vals
                if all(l <= x < h for x, l, h in zip(row, lo, hi))
            )
            if hits != expected:
                return False
    return True


def brute_u_star(points, e, variant: str = "narrow") -> int:
    """Smallest passing quality parameter, by plain linear scan."""
    for u in range(points.precision + 1):
        if brute_verify_net(points, u, e, variant, mode="all"):
            return u
    raise AssertionError("u = m must always pass")


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a list of integer rows, by plain Gaussian elimination."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def digital_witness(b: int, matrices, u: int, e, variant: str = "narrow"):
    """The verify_net witness of the digital net with these generating
    matrices, from their ranks alone: None on a pass.

    The points are the images C a of every digit vector a, so the box counts
    of shape d are b**(m - r) on the image of the stacked first d_i rows of
    each C_i (rank r) and 0 off it; the zero box is the first cell, and it is
    non-uniform exactly when r < sum d.
    """
    mats = [[[int(x) for x in row] for row in c] for c in matrices]
    m = len(mats[0])
    mode = "maximal" if variant == "narrow" else "all"
    for shape in brute_shapes(m, u, e, variant, mode):
        rows = [row for c, d in zip(mats, shape) for row in c[:d]]
        r = rank_mod_p(rows, b)
        if r < sum(shape):
            return {"shape": list(shape), "box": [0] * len(shape),
                    "observed": b ** (m - r), "expected": b ** (m - sum(shape))}
    return None


def brute_net_witness(points, u: int, e, variant: str = "narrow"):
    """The verify_net witness of any point set, None on a pass: shape by
    shape in lexicographic order, a dictionary tally of every point's box
    index vector (each index read digit by digit), then box by box in
    lexicographic order."""
    b = points.base
    m = points.precision
    rows = points.digits.tolist()
    mode = "maximal" if variant == "narrow" else "all"
    for shape in brute_shapes(m, u, e, variant, mode):
        expected = len(rows) // b ** sum(shape)
        tally: dict[tuple, int] = {}
        for point in rows:
            index = []
            for coord, d in zip(point, shape):
                a = 0
                for digit in coord[:d]:
                    a = a * b + digit
                index.append(a)
            tally[tuple(index)] = tally.get(tuple(index), 0) + 1
        for index in itertools.product(*(range(b ** d) for d in shape)):
            if tally.get(index, 0) != expected:
                return {"shape": list(shape), "box": list(index),
                        "observed": tally.get(index, 0), "expected": expected}
    return None


# ---------------------------------------------------------------------------
# mixed orthogonal arrays (dictionary tallies)

def brute_verify_moa(rows, alphabets, t: int) -> bool:
    """Strength check by counting every level combination in a dict."""
    rows = [tuple(int(x) for x in r) for r in rows]
    n_rows = len(rows)
    k = len(alphabets)
    if t == 0:
        return True
    for cols in itertools.combinations(range(k), t):
        prod = math.prod(alphabets[c] for c in cols)
        if n_rows % prod:
            return False
        expected = n_rows // prod
        tally: dict[tuple, int] = {}
        for r in rows:
            key = tuple(r[c] for c in cols)
            tally[key] = tally.get(key, 0) + 1
        for combo in itertools.product(*(range(alphabets[c]) for c in cols)):
            if tally.get(combo, 0) != expected:
                return False
    return True


def brute_max_strength(rows, alphabets) -> int:
    t = 0
    while t + 1 <= len(alphabets) and brute_verify_moa(rows, alphabets, t + 1):
        t += 1
    return t


# ---------------------------------------------------------------------------
# mixed ordered orthogonal arrays (profile enumeration from scratch)

def brute_profiles(m: int, u: int, e, beta, mode: str = "all"):
    budget = m - u
    out = []
    for kappa in itertools.product(*(range(bi + 1) for bi in beta)):
        w = sum(ki * ei for ki, ei in zip(kappa, e))
        if w > budget:
            continue
        if mode == "maximal" and any(
            ki < bi and w + ei <= budget
            for ki, bi, ei in zip(kappa, beta, e)
        ):
            continue
        out.append(tuple(kappa))
    return sorted(out)


def brute_mooa_witness(rows, base: int, m: int, u: int, e, beta, mode: str = "maximal"):
    """The verify_mooa witness of any array, None on a pass: profile by
    profile in lexicographic order, a dictionary tally of every row's tuple
    on the profile's columns, then tuple by tuple in lexicographic order."""
    rows = [tuple(int(x) for x in r) for r in rows]
    starts = [sum(beta[:i]) for i in range(len(beta))]
    for kappa in brute_profiles(m, u, e, beta, mode):
        cols = []
        radii = []
        for i, ki in enumerate(kappa):
            for rho in range(ki):
                cols.append(starts[i] + rho)
                radii.append(base ** e[i])
        w = sum(ki * ei for ki, ei in zip(kappa, e))
        expected = base ** (m - w)
        tally: dict[tuple, int] = {}
        for r in rows:
            key = tuple(r[c] for c in cols)
            tally[key] = tally.get(key, 0) + 1
        for combo in itertools.product(*(range(rad) for rad in radii)):
            if tally.get(combo, 0) != expected:
                return {"profile": list(kappa), "tuple": list(combo),
                        "observed": tally.get(combo, 0), "expected": expected}
    return None


def brute_verify_mooa(rows, base: int, m: int, u: int, e, beta,
                      mode: str = "all") -> bool:
    """Left-prefix uniformity for every admissible profile, via dict tallies."""
    return brute_mooa_witness(rows, base, m, u, e, beta, mode) is None


# ---------------------------------------------------------------------------
# existence search (per-node rescan of every candidate under every shape)

def brute_search_net(b: int, m: int, e, s: int, u: int, node_limit=None):
    """The canonical existence search by the rescan route: (status, nodes,
    digits), digits None unless status is 'found'.

    Candidates are the digit grid ranked by their concatenated digit string;
    the origin is placed first and placements are nondecreasing. Every frame
    keeps a snapshot of the candidates whose boxes all had room when it
    opened, gathered over every remaining candidate and every budget-maximal
    shape; the node count includes the origin and the node limit is checked
    before each later placement.
    """
    n_points = b ** m
    if u == m:
        grid = itertools.product(range(b), repeat=m * s)
        return "found", 0, np.array(list(itertools.islice(grid, n_points)),
                                    dtype=np.int64).reshape(n_points, s, m)
    digits = np.array(list(itertools.product(range(b), repeat=m * s)),
                      dtype=np.int64).reshape(-1, s, m)
    shapes = brute_shapes(m, u, e, "narrow", "maximal")
    box_key = np.zeros((digits.shape[0], len(shapes)), dtype=np.int64)
    caps = []
    offset = 0
    for j, d in enumerate(shapes):
        for i, di in enumerate(d):
            for l in range(di):
                box_key[:, j] = box_key[:, j] * b + digits[:, i, l]
        box_key[:, j] += offset
        offset += b ** sum(d)
        caps.append(b ** (m - sum(d)))
    caps = np.array(caps, dtype=np.int64)
    counts = np.zeros(offset, dtype=np.int64)
    chosen = []

    def place(c):
        counts[box_key[c]] += 1
        chosen.append(c)

    def viable_from(start):
        mask = (counts[box_key[start:]] < caps).all(axis=1)
        return iter((np.nonzero(mask)[0] + start).tolist())

    place(0)
    nodes = 1
    if node_limit is not None and nodes > node_limit:
        return "inconclusive", nodes, None
    stack = [viable_from(0)]
    while stack:
        c = next(stack[-1], None)
        if c is None:
            stack.pop()
            counts[box_key[chosen.pop()]] -= 1
            continue
        if node_limit is not None and nodes >= node_limit:
            return "inconclusive", nodes, None
        nodes += 1
        place(c)
        if len(chosen) == n_points:
            return "found", nodes, digits[chosen]
        stack.append(viable_from(c))
    return "nonexistent", nodes, None


# ---------------------------------------------------------------------------
# row-count bounds (generating polynomials, exact integers)

def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, c in enumerate(q):
            out[i + j] += a * c
    return out


def _poly_pow(p, k: int):
    out = [1]
    for _ in range(k):
        out = _poly_mul(out, p)
    return out


def _signature_poly(pairs):
    poly = [1]
    for l, k in pairs:
        poly = _poly_mul(poly, _poly_pow([1, l - 1], k))
    return poly


def poly_rao_rhs(pairs, t: int) -> int:
    """Strength-t row bound read off the coefficients of
    prod (1 + (l-1) X)**k; pairs must be nondecreasing in l."""
    pairs = [(int(l), int(k)) for l, k in pairs]
    g, odd = divmod(t, 2)
    poly = _signature_poly(pairs)
    total = sum(poly[: g + 1])
    if odd:
        l_top = pairs[-1][0]
        reduced = pairs[:-1] + [(l_top, pairs[-1][1] - 1)]
        reduced = [(l, k) for l, k in reduced if k > 0]
        rpoly = _signature_poly(reduced)
        total += (l_top - 1) * (rpoly[g] if g < len(rpoly) else 0)
    return total


def brute_esym(ys, j: int) -> int:
    """Elementary symmetric sum by explicit subset enumeration."""
    return sum(math.prod(c) for c in itertools.combinations(ys, j))


def brute_net_rao_lhs(b: int, e, g: int, parity: str) -> int:
    ys = [b ** ei - 1 for ei in e]
    lhs = sum(brute_esym(ys, j) for j in range(1, g + 1))
    if parity == "odd":
        lhs += ys[-1] * brute_esym(ys[:-1], g)
    return lhs


def brute_budgets(b: int, e):
    """Every sequence coordinate budget as (values, count, b**lcm), by bitmask
    enumeration of the distinct values and a scan of e per set, listed by set
    size and then lexicographically."""
    values = sorted(set(e))
    out = []
    for mask in range(1, 2 ** len(values)):
        sub = tuple(v for i, v in enumerate(values) if mask >> i & 1)
        out.append((sub, sum(1 for ei in e if ei in sub), b ** math.lcm(*sub)))
    return sorted(out, key=lambda row: (len(row[0]), row[0]))


# ---------------------------------------------------------------------------
# character sums (scalar cmath loops)

def brute_char_vector(rows, base: int, e, beta, d_values):
    """exp(2*pi*i/b**e_i) characters multiplied out one digit at a time."""
    out = []
    for row in rows:
        z = complex(1.0, 0.0)
        col = 0
        for i, (ei, bi) in enumerate(zip(e, beta)):
            modulus = base ** ei
            expo = 0
            for rho in range(bi):
                expo += int(row[col + rho]) * int(d_values[i][rho])
            z *= cmath.exp(2j * cmath.pi * (expo % modulus) / modulus)
            col += bi
        out.append(z)
    return out


def brute_gram(vectors):
    """Conjugate-transpose Gram matrix, scalar arithmetic."""
    f = len(vectors)
    n = len(vectors[0]) if f else 0
    return [
        [sum(vectors[a][r].conjugate() * vectors[c][r] for r in range(n))
         for c in range(f)]
        for a in range(f)
    ]


def _poly_divmod(num, den):
    """Long division of integer polynomials (lowest coefficient first) by a
    monic divisor: (quotient, remainder)."""
    num = list(num)
    k = len(den) - 1
    quot = [0] * max(len(num) - k, 1)
    for i in range(len(num) - k - 1, -1, -1):
        quot[i] = c = num[i + k]
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return quot, num[:k]


def _moebius(n: int) -> int:
    """The Moebius function mu(n), by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def oracle_cyclotomic(q: int):
    """Phi_q = prod_{d | q} (x**d - 1) ** mu(q / d), lowest coefficient first."""
    top, bottom = [1], [1]
    for d in range(1, q + 1):
        if q % d == 0 and _moebius(q // d):
            factor = [-1] + [0] * (d - 1) + [1]
            if _moebius(q // d) > 0:
                top = _poly_mul(top, factor)
            else:
                bottom = _poly_mul(bottom, factor)
    quot, rem = _poly_divmod(top, bottom)
    assert not any(rem)
    return quot


def oracle_vanishes(counts, q: int) -> bool:
    """Whether sum_t counts[t] * exp(2*pi*i*t/q) is exactly 0: Phi_q divides
    the count polynomial."""
    assert len(counts) == q
    _, rem = _poly_divmod([int(c) for c in counts], oracle_cyclotomic(q))
    return not any(rem)


def brute_char_exponents(rows, base: int, e, beta, d_values):
    """Characters as exponents of exp(2*pi*i/L), L = lcm of every b**e_i,
    accumulated one digit at a time."""
    big = math.lcm(*(base ** ei for ei in e))
    out = []
    for row in rows:
        expo, col = 0, 0
        for i, (ei, bi) in enumerate(zip(e, beta)):
            for rho in range(bi):
                expo += int(row[col + rho]) * int(d_values[i][rho]) * (big // base ** ei)
            col += bi
        out.append(expo % big)
    return out, big


def brute_first_gram_failure(rows, base: int, e, beta, family_values):
    """First pair j < k (combinations order) whose Gram entry is not exactly 0,
    or None: rows are tallied by exponent difference mod L and the tally
    tested with :func:`oracle_vanishes`."""
    exps = [brute_char_exponents(rows, base, e, beta, d) for d in family_values]
    seen = {}
    for j, k in itertools.combinations(range(len(exps)), 2):
        (ej, big), (ek, _) = exps[j], exps[k]
        counts = [0] * big
        for a, c in zip(ej, ek):
            counts[(c - a) % big] += 1
        key = tuple(counts)
        if key not in seen:
            seen[key] = oracle_vanishes(counts, big)
        if not seen[key]:
            return j, k
    return None


# ---------------------------------------------------------------------------
# text formats (line-by-line str parsing and joining)

class OracleFormatError(Exception):
    """A text rejected at a 1-based line, with the message explaining why."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


NET_DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_BODY_SPACE = "\t\n\v\f\r\x1c\x1d\x1e\x1f "
_ENTRY_MAX_DIGITS = 19


def _text_lines(text: str) -> list:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _body_tokens(line: str) -> list:
    """Tokens of a body line: only ASCII whitespace separates them."""
    for ch in _BODY_SPACE:
        line = line.replace(ch, " ")
    return [tok for tok in line.split(" ") if tok]


def _need_line(lines, idx: int, what: str) -> str:
    if idx >= len(lines):
        raise OracleFormatError(f"missing {what}", idx + 1)
    return lines[idx]


def _header_int(tok: str, what: str, line: int) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise OracleFormatError(f"{what} must be an integer, got {tok!r}", line) from None


def _keyword_header(line: str, keys, lineno: int) -> list:
    toks = line.split()
    if len(toks) != 2 * len(keys) or tuple(toks[0::2]) != keys:
        raise OracleFormatError(
            f"expected header '{' '.join(k + ' <' + k + '>' for k in keys)}', got {line!r}",
            lineno)
    return [_header_int(toks[2 * j + 1], keys[j], lineno) for j in range(len(keys))]


def _vector_line(line: str, key: str, count: int, lineno: int) -> list:
    toks = line.split()
    if not toks or toks[0] != key:
        raise OracleFormatError(f"expected '{key} ...' line, got {line!r}", lineno)
    if len(toks) != count + 1:
        raise OracleFormatError(f"expected {count} values after '{key}', got {len(toks) - 1}",
                                lineno)
    return [_header_int(t, key, lineno) for t in toks[1:]]


def _int_rows(body, widths, first_lineno: int, n_rows=None, noun="entry", nouns="entries"):
    if n_rows is not None and len(body) != n_rows:
        raise OracleFormatError(f"expected {n_rows} array rows, got {len(body)}",
                                first_lineno + min(len(body), n_rows))
    rows = []
    for r, raw in enumerate(body):
        lineno = first_lineno + r
        toks = _body_tokens(raw)
        if len(toks) != len(widths):
            if not widths:
                raise OracleFormatError(f"expected blank row for zero columns, got {raw!r}",
                                        lineno)
            raise OracleFormatError(f"expected {len(widths)} {nouns}, got {len(toks)}", lineno)
        row = []
        for j, tok in enumerate(toks):
            if len(tok) > _ENTRY_MAX_DIGITS or any(c not in "0123456789" for c in tok):
                raise OracleFormatError(
                    f"{noun} must be 1 to {_ENTRY_MAX_DIGITS} digits 0-9, got {tok!r}", lineno)
            v = int(tok)
            if v >= widths[j]:
                raise OracleFormatError(f"{noun} {v} outside [0, {widths[j]}) in column {j}",
                                        lineno)
            row.append(v)
        rows.append(row)
    return rows


def oracle_parse_net(text: str) -> dict:
    """NET v1 read line by line: header fields and digits[n][i][l]."""
    lines = _text_lines(text)
    if _need_line(lines, 0, "NET v1 magic line") != "NET v1":
        raise OracleFormatError(f"expected 'NET v1', got {lines[0]!r}", 1)
    b, m, s, u = _keyword_header(_need_line(lines, 1, "parameter header"),
                                 ("base", "m", "s", "u"), 2)
    if b < 2:
        raise OracleFormatError(f"base must be >= 2, got {b}", 2)
    if b > 36:
        raise OracleFormatError(f"base {b} exceeds 36, not representable with digit characters",
                                2)
    if m < 0 or s < 1 or not 0 <= u <= m:
        raise OracleFormatError(f"invalid parameters base={b} m={m} s={s} u={u}", 2)
    evals = _vector_line(_need_line(lines, 2, "e-vector line"), "e", s, 3)
    if any(v < 1 for v in evals):
        raise OracleFormatError(f"e-vector entries must be >= 1, got {evals}", 3)
    digits = []
    for r, raw in enumerate(lines[3:]):
        lineno = 4 + r
        toks = _body_tokens(raw)
        if m == 0:
            if toks:
                raise OracleFormatError(f"expected blank point line for m=0, got {raw!r}",
                                        lineno)
            digits.append([[] for _ in range(s)])
            continue
        if len(toks) != s:
            raise OracleFormatError(f"expected {s} digit strings, got {len(toks)}", lineno)
        point = []
        for tok in toks:
            if len(tok) != m:
                raise OracleFormatError(
                    f"digit string {tok!r} has length {len(tok)}, expected {m}", lineno)
            coord = []
            for c in tok:
                if c not in NET_DIGITS[:b]:
                    raise OracleFormatError(f"character {c!r} is not a base-{b} digit", lineno)
                coord.append(NET_DIGITS.index(c))
            point.append(coord)
        digits.append(point)
    return {"base": b, "m": m, "s": s, "u": u, "e": tuple(evals), "digits": digits}


def oracle_parse_moa(text: str) -> dict:
    """MOA v1 read line by line: alphabets, claimed strength and rows."""
    lines = _text_lines(text)
    if _need_line(lines, 0, "MOA v1 magic line") != "MOA v1":
        raise OracleFormatError(f"expected 'MOA v1', got {lines[0]!r}", 1)
    n, k, t = _keyword_header(_need_line(lines, 1, "parameter header"), ("N", "k", "t"), 2)
    if n < 1 or k < 1 or not 0 <= t <= k:
        raise OracleFormatError(f"invalid parameters N={n} k={k} t={t}", 2)
    alphabets = _vector_line(_need_line(lines, 2, "alphabet line"), "l", k, 3)
    if any(l < 2 for l in alphabets):
        raise OracleFormatError(f"alphabet sizes must be >= 2, got {alphabets}", 3)
    if any(l >= 2 ** 63 for l in alphabets):
        raise OracleFormatError(f"alphabet sizes must be below 2**63, got {alphabets}", 3)
    rows = _int_rows(lines[3:], alphabets, 4, n)
    return {"alphabets": tuple(alphabets), "t": t, "rows": rows}


def oracle_parse_mooa(text: str) -> dict:
    """MOOA v1 read line by line: header fields and rows."""
    lines = _text_lines(text)
    if _need_line(lines, 0, "MOOA v1 magic line") != "MOOA v1":
        raise OracleFormatError(f"expected 'MOOA v1', got {lines[0]!r}", 1)
    b, m, s, u = _keyword_header(_need_line(lines, 1, "parameter header"),
                                 ("base", "m", "s", "u"), 2)
    if b < 2 or m < 0 or s < 1 or not 0 <= u <= m:
        raise OracleFormatError(f"invalid parameters base={b} m={m} s={s} u={u}", 2)
    evals = _vector_line(_need_line(lines, 2, "e-vector line"), "e", s, 3)
    if any(v < 1 for v in evals):
        raise OracleFormatError(f"e-vector entries must be >= 1, got {evals}", 3)
    beta = _vector_line(_need_line(lines, 3, "beta line"), "beta", s, 4)
    for i, (bi, ei) in enumerate(zip(beta, evals)):
        cap = (m - u) // ei
        if not 0 <= bi <= cap:
            raise OracleFormatError(f"beta[{i}]={bi} outside [0, {cap}] allowed by (m-u)/e_i",
                                    4)
    floor_log2 = 0
    while 2 ** (floor_log2 + 1) <= b:
        floor_log2 += 1
    if m * floor_log2 >= 64:  # a row count this large is spelled as a power
        rows = len(lines) - 4
        raise OracleFormatError(f"expected {b}**{m} array rows, got {rows}", 5 + rows)
    widths = [b ** ei for bi, ei in zip(beta, evals) for _ in range(bi)]
    rows = _int_rows(lines[4:], widths, 5, b ** m)
    return {"base": b, "m": m, "u": u, "e": tuple(evals), "beta": tuple(beta), "rows": rows}


def oracle_parse_function_tuples(text: str, base: int, e, beta) -> list:
    """Residue rows read line by line, split into per-block tuples."""
    widths = [base ** ei for bi, ei in zip(beta, e) for _ in range(bi)]
    out = []
    for row in _int_rows(_text_lines(text), widths, 1, None, "residue", "residues"):
        blocks, pos = [], 0
        for bi in beta:
            blocks.append(tuple(row[pos : pos + bi]))
            pos += bi
        out.append(tuple(blocks))
    return out


def oracle_net_text(base: int, u: int, e, digits) -> str:
    """Canonical NET v1 text joined string by string."""
    n_pts, s, m = digits.shape
    out = ["NET v1", f"base {base} m {m} s {s} u {u}", "e " + " ".join(str(v) for v in e)]
    for n in range(n_pts):
        out.append(" ".join("".join(NET_DIGITS[int(d)] for d in digits[n, i, :])
                            for i in range(s)))
    return "\n".join(out) + "\n"


def oracle_rows_text(header, rows) -> str:
    """Header lines then one line of space-joined decimal entries per row."""
    out = list(header) + [" ".join(str(int(v)) for v in row) for row in rows]
    return "\n".join(out) + "\n"
