"""Truncated series products by Kronecker substitution.

Every series product and composition runs through ``convolve``: the
coefficients of each operand go into fixed-width byte slots of one
integer, CPython multiplies the two integers, and the product's
coefficients are read back from its slots (Harvey, *Faster polynomial
multiplication via multipoint Kronecker substitution*, 2009).  A slot is
wide enough for every input and output coefficient, and each value is
stored biased by half the slot's range, so signed coefficients pack and
unpack without borrows between slots.

Coefficient lists are little-endian (index = exponent).
"""


def convolve(a, b, n):
    """First n coefficients of the product of integer polynomials a and b."""
    a, b = a[:n], b[:n]
    if not a or not b:
        return [0] * n
    ma, mb = max(map(abs, a)), max(map(abs, b))
    bound = ma * mb * min(len(a), len(b))  # on every product coefficient
    bits = max(ma.bit_length(), mb.bit_length(), bound.bit_length())
    width = bits // 8 + 1  # every value lies strictly inside (-bias, bias)
    bias = 1 << (8 * width - 1)
    slot = bias.to_bytes(width, "little")

    def biases(m):  # bias in each of the first m slots
        return int.from_bytes(slot * m, "little")

    def pack(xs):
        packed = b"".join((x + bias).to_bytes(width, "little") for x in xs)
        return int.from_bytes(packed, "little") - biases(len(xs))

    low = (pack(a) * pack(b) + biases(n)) & ((1 << (8 * width * n)) - 1)
    raw = low.to_bytes(width * n, "little")
    slots = range(0, width * n, width)
    return [int.from_bytes(raw[i : i + width], "little") - bias for i in slots]


def convolve_mod(a, b, n, p):
    """First n coefficients of the coefficient convolution of a and b mod p."""
    return [c % p for c in convolve([x % p for x in a[:n]], [x % p for x in b[:n]], n)]


def compose_mod(f, g, n, p):
    """First n coefficients of f(g) mod p; requires g[0] == 0.

    Horner's rule from the top: g**j contributes nothing below T**j, so
    the step that adds f_j works modulo T**(n - j).
    """
    if n == 0:
        return []
    g = [x % p for x in g[:n]]
    if g and g[0]:
        raise ValueError("composition requires zero constant term")
    acc = []
    for j in reversed(range(min(len(f), n))):
        acc = convolve(g, acc, n - j)
        acc[0] += f[j]
        acc = [c % p for c in acc]
    return acc or [0] * n
