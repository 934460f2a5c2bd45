"""The prefix tree on the worked four-rectangle instance, then bucketed.

Every stream element extends every node (depth < k) that has no child with
the same gain key.  Exact keys give the textbook tree; bucketed keys cap
the children per node and hence total memory, stream length be damned.
"""

from injectstream import (
    CoverageOracle,
    Element,
    PrefixTree,
    RunStats,
    best_solution,
    figure2_instance,
    node_count_bound,
    run_tree_stream,
    tree_process,
)

instance, k = figure2_instance()
oracle = CoverageOracle(instance)

tree = PrefixTree(k, oracle)
for eid in ("A", "B", "C", "D"):
    tree_process(tree, Element(eid))


def show(node, indent=0):
    for child in node.children.values():
        print("  " * indent + f"{child.element.id} (gain {child.gain}, value {child.value})")
        show(child, indent + 1)


print(f"k = {k}, stream A B C D, exact gains:")
show(tree.root)
best = best_solution(tree)
print(f"best node: {sorted(best.elements)} value {best.value}")

print(f"\nnode count bound for k=3, delta=0.2: {node_count_bound(3, '0.2')}")
stats = RunStats()
sol = run_tree_stream(
    (Element(eid) for eid in ("A", "B", "C", "D")),
    k, "0.5", oracle, mode="bucketed", g=5, stats=stats,
)
print(f"bucketed run (g=5, delta=0.5): value {sol.value}, "
      f"live nodes max {stats.nodes_live_max} <= {node_count_bound(k, '0.5')}")
