"""Exact small-scale expansions and the flagged reference-table entries.

Prints the engine-derived expansions of the variance functionals for a few
(n, m), then walks one cell where the built-in closed-form table disagrees
with the engine and shows the numeric residual fit siding with the engine.
"""

from zonalvar import compare_expansion, expand_variances
from zonalvar.asymptotics import _residual_fits

CASES = ((2, 1), (3, 1), (4, 2), (7, 3))


def main():
    for n, m in CASES:
        var_space, var_momentum, product = expand_variances(n, m)
        print(f"n={n}, m={m}")
        print(f"  var_space   = {var_space}")
        print(f"  var_momentum = {var_momentum}")
        print(f"  product     = sqrt({product.radicand}) * ({product.tail})")
        print()

    n, m = 4, 2
    print(f"reference-table comparison at n={n}, m={m}:")
    for target, cell in compare_expansion(n, m).items():
        marker = "" if cell["match"] else "   <- mismatch"
        print(f"  {target:>22}: engine {str(cell['engine']):>10}, "
              f"stated {str(cell['stated']):>10}{marker}")

    print("\nnumeric confirmation (log-log residual slopes, engine expansion):")
    fits = _residual_fits(n, m)
    for quantity, floor in (("varS", 3.5), ("U", 1.9), ("varM", -0.1)):
        fit = fits[quantity]
        print(f"  {quantity:>4}: slope {fit.slope:+.3f} (needs >= {floor})")
    print("the engine expansion predicts the numerics; the stated entries do not")


if __name__ == "__main__":
    main()
