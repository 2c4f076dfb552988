"""The equal-or-vanish subroutine, enumerated exactly.

Starting from an x0 = 0 state, lagging parties either join the maximal
weight or drop out.  The finite branch tree lands on standard W states on
subsets of the parties; enumerating it gives every terminal probability
in closed form.  The walkthrough below reproduces the textbook case of a
heavy pendant party on the paw graph, then prints the DOT tree: the
protocol tree's node table, stopped at the first standard W state.
"""

from wdistill import (
    WState,
    ev_distribution,
    ev_tree,
    full_set_lambda,
    graph_catalog,
)

alpha = 0.4
graph = graph_catalog("VI")  # paw: hub A, triangle ABC, pendant D
state = WState([alpha / (1 + 3 * alpha)] * 3 + [1 / (1 + 3 * alpha)], graph.labels)
print("graph edges:", sorted(graph.edges))
print("state:", tuple(round(c, 6) for c in state.components))

print("\nterminal distribution (exact):")
norm = 1 + 3 * alpha
expected = {
    "W2(B,C)": 2 * alpha * (1 - alpha) / norm,
    "W2(A,D)": 2 * alpha * (1 - alpha) ** 2 / norm,
    "W3(A,B,D)": 3 * alpha ** 2 * (1 - alpha) / norm,
    "W3(A,C,D)": 3 * alpha ** 2 * (1 - alpha) / norm,
    "W4(A,B,C,D)": 4 * alpha ** 3 / norm,
}
for term, p in ev_distribution(state, graph).items():
    label = term.label()
    note = ""
    if label in expected:
        note = f"   closed form {expected[label]:.9f}"
    print(f"  {label:<14} {p:.9f}{note}")

print("\nfull-set weight from the product formula:", full_set_lambda(state))

dot = ev_tree(state, graph).to_dot()
print(f"\nDOT export ({len(dot.splitlines())} lines); first five:")
print("\n".join(dot.splitlines()[:5]))
