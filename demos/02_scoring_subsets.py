"""
Scoring candidate subsets
=========================

A good critical subset soils a lot of the graph with few seeds. The
basic cost S^2 + beta * (1 - n/N)^2 rewards both; beta sets the price
of size. This demo scores a fixed shortlist of subsets two ways.
"""
from critset import CostSpec, SubsetEvaluator, basic_cost, over_n, soil
from critset.datasets import DEMO_SHORTLIST, demo_graph

g = demo_graph()

# Score one subset by hand first: {1, 6} soils six nodes out of seven.
report, soiled, _ = soil(g, {"1", "6"})
value = basic_cost(soiled, n=2, n_total=g.n_nodes)
print(f"{{1,6}}: S = {soiled:.4f}, basic cost (beta=1) = {value:.4f}")
print()

# SubsetEvaluator does the soil-then-score pipeline in one call and
# computes each node's reach set once, up front, which matters once a
# search evaluates thousands of subsets. Compare beta = 1 against
# beta = 2/n, which discounts the size bonus as subsets grow.
flat = SubsetEvaluator(g, CostSpec())
decaying = SubsetEvaluator(g, CostSpec(beta=over_n(2.0)))

print(f"{'subset':<12} {'n':>2} {'S':>7} {'beta=1':>8} {'beta=2/n':>9}")
for seeds in DEMO_SHORTLIST:
    a = flat.evaluate(seeds)
    b = decaying.evaluate(seeds)
    label = ",".join(sorted(seeds))
    print(f"{label:<12} {a.n:>2} {a.soiled:>7.4f} {a.value:>8.4f} {b.value:>9.4f}")

# beta = 1 crowns {1,4,6}: full coverage is worth carrying three seeds.
# beta = 2/n shifts the winner to {1,6}, whose smaller size keeps more
# of the shrinking bonus.
best_flat = max(DEMO_SHORTLIST, key=lambda s: flat.evaluate(s).value)
best_decay = max(DEMO_SHORTLIST, key=lambda s: decaying.evaluate(s).value)
print()
print("shortlist winner, beta = 1:  ", sorted(best_flat))
print("shortlist winner, beta = 2/n:", sorted(best_decay))
