"""Truncated series products and compositions by Kronecker substitution.

Every series product and composition runs through ``convolve``: the
coefficients of each operand go into fixed-width byte slots of one
integer, CPython multiplies the two integers, and the product's
coefficients are read back from its slots (Harvey, *Faster polynomial
multiplication via multipoint Kronecker substitution*, 2009).  A slot is
wide enough for every input and output coefficient.

Over GF(p) the operands are residues in [0, p), the canonical members
that the series layer stores, so every product coefficient lies in
[0, (p - 1)**2 * k] for k terms of the shorter operand: the slots are
unsigned, their width is fixed by p and k, and no operand is read to
choose it.  Over the integers the operands are scanned for their largest
magnitude, and each value is stored biased by half the slot's range, so
signed coefficients pack and unpack without borrows between slots.

Slots of at most 8 bytes are machine words: their width rounds up to 1,
2, 4 or 8 bytes, and ``array`` packs and unpacks all of them in C, with
the unsigned typecodes B/H/I/Q for residues and the signed b/h/i/q for
integers.  A signed word differs from the biased one only in its top
bit, so the packed integer is the words' bytes XOR the bias pattern,
minus that pattern; unpacking adds the pattern, masks and XORs it back.
Wider slots (residues mod 2**61 - 1, large rationals) go through
``int.to_bytes``/``int.from_bytes`` one coefficient at a time, biased
only over the integers.

Large products evaluate at two points, +2**s and -2**s with s half a
slot (Harvey's multipoint form).  Split A = E(T**2) + T*O(T**2) into its
even and odd coefficients; T**2 = 2**(2s) is one slot, so packing each
half gives A(+-2**s) = E +- (O << s).  The products P+ and P- are each
about half the size of the one-point product, and (P+ + P-) / 2 and
(P+ - P-) / 2**(s+1) are the even and odd output coefficients packed in
whole slots, so both shifts are exact.  CPython multiplies large
integers by Karatsuba, so two half-size products cost about 2/3 of one
full-size product, and the extra packing and unpacking is paid back once
the shorter operand packs to about 800 bytes.  ``convolve`` takes two
points from _TWO_POINT_BYTES = 1 KiB of packed slots (slot width times
the shorter operand's length), decided by that size alone.  One-point
time over two-point time per call (medians of 80 alternating calls,
2-vCPU container, Python 3.11): 0.84-0.89 at 256 B, 0.96-0.99 at 512 B,
1.01-1.07 at 768-816 B, 1.04-1.15 at 1 KiB, 1.19-1.25 at 2 KiB and 1.27
at 4.3 KiB (256 terms mod 2**61 - 1).

``compose`` is Brent and Kung's baby-step/giant-step composition
(*Fast algorithms for manipulating formal power series*, 1978, Alg. 2.1),
over the integers or mod p.  With m = ceil(sqrt(k)) for k coefficients of
f, it computes g**2, ..., g**m by ``convolve`` (baby steps), forms each
chunk C_j = sum of f[j*m + i] * g**i over i < m, and sums
f(g) = sum of C_j * (g**m)**j by Horner's rule in g**m (giant steps).
The chunks are linear combinations, not products: every g**i with i < m
is packed once into one integer, a chunk is m scalar-times-packed
multiplications, and only its first n - j*m slots, the ones that survive
the factor (g**m)**j, are read back.  A composition to order n thus
makes at most 2*ceil(sqrt(n)) - 2 calls of ``convolve``, where Horner's
rule in g makes n.

Coefficient lists are little-endian (index = exponent).
"""

import sys
from array import array
from math import isqrt
from operator import mul

_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"}  # slot width in bytes -> signed typecode
_UNSIGNED = {1: "B", 2: "H", 4: "I", 8: "Q"}  # slot width in bytes -> unsigned typecode
if any(array(code).itemsize != width for codes in (_SIGNED, _UNSIGNED) for width, code in codes.items()):
    raise ImportError("array typecodes b/B, h/H, i/I and q/Q must be 1, 2, 4 and 8 bytes wide")
_SWAP = sys.byteorder == "big"  # array words are native-endian, slots little-endian
_TWO_POINT_BYTES = 1024  # shorter operand's packed size from which convolve evaluates at +-2**s


def _width(bits):
    """Byte width of unsigned slots for values of at most `bits` bits."""
    width = max(bits + 7, 8) // 8
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # the machine word that holds it
    return width


def _slots(bits):
    """Byte width and bias of signed slots for values of at most `bits` bits."""
    width = _width(bits + 1)  # every value lies strictly inside (-bias, bias)
    return width, 1 << (8 * width - 1)


def _biases(m, width, bias):
    """The bias in each of the first m slots."""
    return int.from_bytes(bias.to_bytes(width, "little") * m, "little")


def _pack(xs, width, bias):
    """The integer sum of xs[i] * 2**(8 * width * i); bias 0 for unsigned slots."""
    code = (_SIGNED if bias else _UNSIGNED).get(width)
    if code is None:
        if not bias:
            return int.from_bytes(b"".join(x.to_bytes(width, "little") for x in xs), "little")
        packed = b"".join((x + bias).to_bytes(width, "little") for x in xs)
        return int.from_bytes(packed, "little") - _biases(len(xs), width, bias)
    words = array(code, xs)
    if _SWAP:
        words.byteswap()
    if not bias:
        return int.from_bytes(words, "little")
    biases = _biases(len(xs), width, bias)
    return (int.from_bytes(words, "little") ^ biases) - biases


def _unpack(v, m, width, bias):
    """The first m slot values of a packed integer v; bias 0 for unsigned slots."""
    if bias:
        biases = _biases(m, width, bias)
        v += biases
    low = v & ((1 << (8 * width * m)) - 1)
    code = (_SIGNED if bias else _UNSIGNED).get(width)
    if code is None:
        raw = low.to_bytes(width * m, "little")
        if not bias:
            return [int.from_bytes(raw[i : i + width], "little") for i in range(0, width * m, width)]
        return [int.from_bytes(raw[i : i + width], "little") - bias for i in range(0, width * m, width)]
    words = array(code, (low ^ biases if bias else low).to_bytes(width * m, "little"))
    if _SWAP:
        words.byteswap()
    return words.tolist()


def convolve(a, b, n, p=None, reduced=True):
    """First n coefficients of the product of integer polynomials a and b, mod p if given.

    Over the integers a and b may hold any ints; their largest magnitudes
    size signed slots.  With p given, a and b must be residues in [0, p),
    as every GF(p) series coefficient is: the unsigned slots are sized
    from p and the shorter length alone, and the output is reduced mod p,
    unless reduced is false: then each coefficient is the exact sum of
    products, below (p - 1)**2 * min(len a, len b), for a caller that
    adds to it before reducing.
    """
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    k = min(len(a), len(b))
    if p is None:
        ma, mb = max(map(abs, a)), max(map(abs, b))
        bound = ma * mb * k  # on every product coefficient
        width, bias = _slots(max(ma.bit_length(), mb.bit_length(), bound.bit_length()))
    else:
        width, bias = _width(((p - 1) ** 2 * k).bit_length()), 0
    if width * k < _TWO_POINT_BYTES:
        out = _unpack(_pack(a, width, bias) * _pack(b, width, bias), n, width, bias)
    else:
        s = 4 * width  # half a slot, in bits: T = +-2**s, T**2 = one slot
        ea, oa = _pack(a[0::2], width, bias), _pack(a[1::2], width, bias) << s
        eb, ob = _pack(b[0::2], width, bias), _pack(b[1::2], width, bias) << s
        plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
        out = [0] * n
        out[0::2] = _unpack((plus + minus) >> 1, (n + 1) // 2, width, bias)
        out[1::2] = _unpack((plus - minus) >> (s + 1), n // 2, width, bias)
    return out if p is None or not reduced else [c % p for c in out]


def convolve_mod(a, b, n, p):
    """``convolve`` of residues a and b in [0, p), under the name the benchmark's tracer wraps.

    The slots are sized from p, so an operand outside [0, p) may overflow
    them; ``convolve`` without p takes any integers.
    """
    return convolve(a, b, n, p)


def compose(f, g, n, p=None, d=1):
    """First n coefficients of d**(k-1) * f(g/d), k = len(f[:n]); g[0] must be 0.

    Over the integers, or mod p when p is given; then f and g may hold any
    ints, which are reduced first, and g[0] need only vanish mod p.  Mod p
    every slot is sized from p (residues of f times residues of d**i times
    residues of g**i), over the integers from the operands' magnitudes.
    d = 1 gives f(g).  For a rational composition, f and g are integer
    numerators and d the common denominator of g: the term f_j * g**j
    then carries d**(k-1-j), and the powers of d enter chunk by chunk, so
    no coefficient of f is scaled by more than d**(m-1).
    """
    reduce = (lambda xs: xs) if p is None else (lambda xs: [x % p for x in xs])
    f, g = reduce(f[:n]), reduce(g[:n])
    if g and g[0]:
        raise ValueError("composition requires zero constant term")
    if not f:
        return [0] * n
    m = isqrt(len(f) - 1) + 1  # ceil(sqrt(len(f)))
    powers = [[1] + [0] * (n - 1), g + [0] * (n - len(g))]
    while len(powers) < m + (len(f) > m):  # baby steps; g**m only for giant steps
        powers.append(convolve(powers[-1], g, n, p))
    if p is None:
        dpowers = [d**i for i in range(m + 1)]
        top = max(max(map(abs, power)) for power in powers[:m])
        bound = max(map(abs, f)) * abs(dpowers[m - 1]) * top * m  # on every chunk coefficient
        width, bias = _slots(max(top.bit_length(), bound.bit_length()))
    else:
        dpowers = [pow(d, i, p) for i in range(m + 1)]
        width, bias = _width(((p - 1) ** 2 * max(dpowers[:m]) * m).bit_length()), 0
    packed = [_pack(power, width, bias) for power in powers[:m]]
    acc = None
    for j in reversed(range(0, len(f), m)):  # giant steps in g**m, from the top
        keep = n - j  # (g**m)**(j/m) vanishes below T**j
        part = f[j : j + m]
        scaled = map(mul, part, dpowers[len(part) - 1 :: -1])  # f[j+i] * d**(len(part)-1-i)
        chunk = _unpack(sum(map(mul, scaled, packed)), keep, width, bias)
        if acc is None:
            scale = dpowers[len(part)]  # the power of d the next chunk carries beyond acc
        else:
            chunk = [scale * c + s for c, s in zip(chunk, convolve(acc, powers[m], keep, p, False))]
            scale *= dpowers[m]
        acc = reduce(chunk)
    return acc


def compose_mod(f, g, n, p):
    """``compose`` mod p, under the name the benchmark's tracer wraps."""
    return compose(f, g, n, p)
