"""Run the Lebesgue-exponent bootstrap and print its trace.

Starting from an a-priori exponent l0 the recursion
1/l^{(M)} = (p-1)/l^{(M-1)} - 1/n improves integrability step by step;
once the reciprocal turns negative the iterate is in L^infinity and the
regularity argument closes after M* steps.  The recursion runs in exact
rational arithmetic and is checked, step by step, against its closed
form.  A reciprocal of exactly zero (u in W^{1,n}, the borderline case
that misses L^infinity) takes one more step.
"""

from diracbvp import bootstrap_exponents


def show(n, p, l0):
    tr = bootstrap_exponents(n, p, l0)
    print("n = %s, p = %s, l0 = %s" % (n, p, l0))
    print("  M   1/l^(M)")
    for m, rec in enumerate(tr.reciprocals):
        print("  %-3d % .8f" % (m, rec))
    print("  M* = %s\n" % (tr.m_star,))


def main():
    show(4, "8/3", 4)       # documented reference trace, M* = 3
    show(3, 3, 6)           # passes exactly through zero, M* = 2
    show(3, 3, 3)           # the fixed point l0 = n(p-2): never terminates


if __name__ == "__main__":
    main()
