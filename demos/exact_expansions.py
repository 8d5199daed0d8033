"""Exact small-scale expansions and the flagged reference-table entries.

Prints the engine-derived expansions of the variance functionals for a few
(n, m), then walks one cell where the built-in closed-form table disagrees
with the engine and shows the numeric residual fit siding with the engine.
"""

from zonalvar import compare_expansion, expand_variances, residual_order_check
from zonalvar.cli import RESIDUAL_THRESHOLDS

CASES = ((2, 1), (3, 1), (4, 2), (7, 3))


def main():
    for n, m in CASES:
        var_space, var_momentum, product = expand_variances(n, m)
        print(f"n={n}, m={m}")
        print(f"  var_space   = {var_space}")
        print(f"  var_momentum = {var_momentum}")
        print(f"  product     = {product}")
        print()

    n, m = 4, 2
    print(f"reference-table comparison at n={n}, m={m}:")
    for target, cell in compare_expansion(n, m).items():
        marker = "" if cell["match"] else "   <- mismatch"
        print(f"  {target:>22}: engine {str(cell['engine']):>10}, "
              f"stated {str(cell['stated']):>10}{marker}")

    print("\nnumeric confirmation (log-log residual slopes, engine expansion):")
    for quantity, floor in RESIDUAL_THRESHOLDS.items():
        fit = residual_order_check(n, m, quantity)
        print(f"  {quantity:>4}: slope {fit.slope:+.3f} (needs >= {floor})")
    print("the engine expansion predicts the numerics; the stated entries do not")


if __name__ == "__main__":
    main()
