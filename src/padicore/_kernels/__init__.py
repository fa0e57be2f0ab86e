"""Truncated series products and compositions by Kronecker substitution.

Every series product and composition runs through ``convolve``: the
coefficients of each operand go into fixed-width byte slots of one
integer, CPython multiplies the two integers, and the product's
coefficients are read back from its slots (Harvey, *Faster polynomial
multiplication via multipoint Kronecker substitution*, 2009).  A slot is
wide enough for every input and output coefficient, and each value is
stored biased by half the slot's range, so signed coefficients pack and
unpack without borrows between slots.

Slots of at most 8 bytes are machine words: their width rounds up to 1,
2, 4 or 8 bytes, and ``array`` with a signed typecode packs and unpacks
all of them in C.  A signed word differs from the biased one only in its
top bit, so the packed integer is the words' bytes XOR the bias pattern,
minus that pattern; unpacking adds the pattern, masks and XORs it back.
Wider slots (coefficients mod 2**61 - 1, large rationals) go through
``int.to_bytes``/``int.from_bytes`` one coefficient at a time.

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

_WORDS = {1: "b", 2: "h", 4: "i", 8: "q"}  # slot width in bytes -> signed typecode
if any(array(code).itemsize != width for width, code in _WORDS.items()):
    raise ImportError("array typecodes b, h, i and q must be 1, 2, 4 and 8 bytes wide")
_SWAP = sys.byteorder == "big"  # array words are native-endian, slots little-endian
_TWO_POINT_BYTES = 1024  # shorter operand's packed size from which convolve evaluates at +-2**s


def _slots(bits):
    """Byte width and bias of slots for values of at most `bits` bits."""
    width = bits // 8 + 1  # every value lies strictly inside (-bias, bias)
    if width <= 8:
        width = 1 << (width - 1).bit_length()  # the machine word that holds it
    return width, 1 << (8 * width - 1)


def _biases(m, width, bias):
    """The bias in each of the first m slots."""
    return int.from_bytes(bias.to_bytes(width, "little") * m, "little")


def _pack(xs, width, bias):
    """The integer sum of xs[i] * 2**(8 * width * i)."""
    biases = _biases(len(xs), width, bias)
    code = _WORDS.get(width)
    if code is None:
        packed = b"".join((x + bias).to_bytes(width, "little") for x in xs)
        return int.from_bytes(packed, "little") - biases
    words = array(code, xs)
    if _SWAP:
        words.byteswap()
    return (int.from_bytes(words, "little") ^ biases) - biases


def _unpack(v, m, width, bias):
    """The first m slot values of a packed integer v."""
    biases = _biases(m, width, bias)
    low = (v + biases) & ((1 << (8 * width * m)) - 1)
    code = _WORDS.get(width)
    if code is None:
        raw = low.to_bytes(width * m, "little")
        return [int.from_bytes(raw[i : i + width], "little") - bias for i in range(0, width * m, width)]
    words = array(code, (low ^ biases).to_bytes(width * m, "little"))
    if _SWAP:
        words.byteswap()
    return words.tolist()


def convolve(a, b, n):
    """First n coefficients of the product of integer polynomials a and b."""
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = ma * mb * min(len(a), len(b))  # on every product coefficient
    width, bias = _slots(max(ma.bit_length(), mb.bit_length(), bound.bit_length()))
    if width * min(len(a), len(b)) < _TWO_POINT_BYTES:
        return _unpack(_pack(a, width, bias) * _pack(b, width, bias), n, width, bias)
    s = 4 * width  # half a slot, in bits: T = +-2**s, T**2 = one slot
    ea, oa = _pack(a[0::2], width, bias), _pack(a[1::2], width, bias) << s
    eb, ob = _pack(b[0::2], width, bias), _pack(b[1::2], width, bias) << s
    plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    even = _unpack((plus + minus) >> 1, (n + 1) // 2, width, bias)
    odd = _unpack((plus - minus) >> (s + 1), n // 2, width, bias)
    out = [0] * n
    out[0::2], out[1::2] = even, odd
    return out


def convolve_mod(a, b, n, p):
    """First n coefficients of the coefficient convolution of a and b mod p.

    ``convolve`` is exact on any integers, so only the output is reduced;
    inputs already reduced mod p keep the slots narrow.
    """
    return [c % p for c in convolve(a, b, n)]


def compose(f, g, n, p=None, d=1):
    """First n coefficients of d**(k-1) * f(g/d), k = len(f[:n]); g[0] must be 0.

    Over the integers, or mod p when p is given; then g[0] need only
    vanish mod p.  d = 1 gives f(g).  For a rational composition, f and g
    are integer numerators and d the common denominator of g: the term
    f_j * g**j then carries d**(k-1-j), and the powers of d enter chunk
    by chunk, so no coefficient of f is scaled by more than d**(m-1).
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
        powers.append(reduce(convolve(powers[-1], g, n)))
    dpowers = [d**i for i in range(m + 1)]
    top = max(max(map(abs, power)) for power in powers[:m])
    bound = max(map(abs, f)) * abs(dpowers[m - 1]) * top * m  # on every chunk coefficient
    width, bias = _slots(max(top.bit_length(), bound.bit_length()))
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
            chunk = [scale * c + s for c, s in zip(chunk, convolve(acc, powers[m], keep))]
            scale *= dpowers[m]
        acc = reduce(chunk)
    return acc


def compose_mod(f, g, n, p):
    """``compose`` mod p, under the name the benchmark's tracer wraps."""
    return compose(f, g, n, p)
