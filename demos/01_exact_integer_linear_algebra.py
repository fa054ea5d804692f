#!/usr/bin/env python3
"""Tour of the exact integer linear algebra layer.

Everything runs over arbitrary-precision integers: Smith normal form with
its transformation matrices, canonical Hermite bases for sublattices,
kernels, images, cokernels, lattice intersections and characteristic
polynomials.
"""

from vancoh import (char_poly, cokernel, image, intersect, kernel, matrix,
                    poly_divides, smith_normal_form)

# ---------------------------------------------------------------------------
# Smith normal form: u * m * v = d with unimodular u, v
# ---------------------------------------------------------------------------
m = matrix([[2, 4, 4],
            [-6, 6, 12],
            [10, 4, 16]])
u, d, v = smith_normal_form(m)
print("m =", m.tolist())
print("d =", d.tolist())
print("u =", u.tolist())
print("v =", v.tolist())
print("u*m*v == d:", u * m * v == d)
print()

# The diagonal entries form a divisibility chain; they are the invariant
# factors of the cokernel.
print("cokernel Z^3/im(m):", cokernel(m))
print()

# ---------------------------------------------------------------------------
# Kernels are saturated sublattices with a canonical Hermite basis
# ---------------------------------------------------------------------------
k = kernel(matrix([[1, 1, 1]]))
print("kernel of the sum functional on Z^3:")
print("  basis columns:", list(zip(*k.basis.data)))
print("  rank:", k.rank)
print()

# Canonical bases make equality of sublattices a plain comparison:
same = image(matrix([[1, 0], [1, 1], [-2, -1]]))
print("another spanning set, same lattice?", same == k)
print()

# ---------------------------------------------------------------------------
# Images and intersections
# ---------------------------------------------------------------------------
a = image(matrix([[2, 0], [0, 1]]))
b = image(matrix([[1], [1]]))
both = intersect(a, b)
print("span{(2,0),(0,1)} intersect span{(1,1)} =", list(zip(*both.basis.data)))
print()

# ---------------------------------------------------------------------------
# Characteristic polynomials, exactly
# ---------------------------------------------------------------------------
swap = matrix([[0, 1], [1, 0]])
p = char_poly(swap)
print("char poly of the swap:", p)
double_swap = matrix([[0, 1, 0, 0],
                      [1, 0, 0, 0],
                      [0, 0, 0, 1],
                      [0, 0, 1, 0]])
q = char_poly(double_swap)
print("char poly of two independent swaps:", q)
print("(t^2 - 1) divides it:", poly_divides(p, q))
band = matrix([[3, 1, 0, 0],
               [1, 3, 1, 0],
               [0, 1, 3, 1],
               [0, 0, 1, 3]])
r = char_poly(band)
print("char poly of a 4x4 band matrix:", r, "  r(3) =", r(3))
