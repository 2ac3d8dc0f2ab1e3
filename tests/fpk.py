"""Plain-Python finite fields F_{p^k} = F_p[t]/(f): a slow, independent
oracle for the tests (the library itself never leaves F_p).

An element a_0 + a_1 t + ... + a_{k-1} t^{k-1} has the integer code
a_0 + a_1 p + ... + a_{k-1} p^{k-1}, so codes 0..p-1 are the scalars.
Polynomials are coefficient tuples, lowest degree first; a monic degree-k
polynomial t^k + c_{k-1} t^{k-1} + ... + c_0 is given by (c_0, ..., c_{k-1}).
"""


def _digits(n, p, k):
    return [(n // p ** i) % p for i in range(k)]


def _code(digits, p):
    return sum(d * p ** i for i, d in enumerate(digits))


def _remainder(f, g, p):
    """f mod g over F_p, for full coefficient lists with g monic."""
    r = list(f)
    for i in range(len(r) - len(g), -1, -1):
        c = r[i + len(g) - 1]
        if c:
            for j, gj in enumerate(g):
                r[i + j] = (r[i + j] - c * gj) % p
    return r[:len(g) - 1]


def is_irreducible(coeffs, p):
    """Does the monic t^k + c_{k-1} t^{k-1} + ... + c_0 have no monic factor
    of degree 1..k/2 over F_p?  Trial division by every candidate."""
    f = list(coeffs) + [1]
    k = len(coeffs)
    for d in range(1, k // 2 + 1):
        for n in range(p ** d):
            if not any(_remainder(f, _digits(n, p, d) + [1], p)):
                return False
    return True


def least_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p.

    Candidates are scanned in increasing order of the integer with base-p
    digits (c_{k-1}, ..., c_1, c_0), most significant digit first.
    """
    for n in range(p ** k):
        coeffs = tuple(_digits(n, p, k))
        if is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("irreducibles of every degree exist")


class Fpk:
    """F_p[t]/(f) on integer codes; f is the monic irreducible `modulus`,
    the lexicographically least one of degree k by default."""

    def __init__(self, p, k, modulus=None):
        self.p, self.k, self.q = p, k, p ** k
        self.modulus = (least_irreducible(p, k) if modulus is None
                        else tuple(c % p for c in modulus))
        assert len(self.modulus) == k

    def add(self, a, b):
        p, k = self.p, self.k
        return _code([(x + y) % p for x, y in
                      zip(_digits(a, p, k), _digits(b, p, k))], p)

    def mul(self, a, b):
        """a * b by Horner's rule in t over the digits of b: multiply the
        running product by t (reducing t^k = -c_0 - ... - c_{k-1} t^{k-1})
        and add the next digit of b times a."""
        p, k = self.p, self.k
        da = _digits(a, p, k)
        acc = [0] * k
        for bi in reversed(_digits(b, p, k)):
            top = acc[-1]
            acc = [(x - top * c + bi * y) % p
                   for x, c, y in zip([0] + acc[:-1], self.modulus, da)]
        return _code(acc, p)

    def pow(self, a, e):
        acc = 1
        while e:
            if e & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            e >>= 1
        return acc
