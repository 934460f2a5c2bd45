"""Matching under injections: the greedy trap and the two-branch recovery.

s crossing edges arrive first and every greedy run stalls at exactly s out
of 2s.  The second branch freezes its matching near (1/2 - EPS) m* and
spends the rest of the stream collecting 3-augmenting paths.
"""

from injectstream import (
    BETA,
    EPS,
    build_stream,
    edges_from_stream,
    exact_max_matching,
    generate_matching_instance,
    geometric_guess_run,
    greedy_matching,
    make_plan,
    match_run,
)

s = 30
split, m_star = generate_matching_instance("greedy_trap", {"s": s}, seed=0)
plan = make_plan(split, "front")
print(f"trap instance: m* = {m_star}, {len(split.noise)} crossing noise edges")

for seed in range(3):
    stream = build_stream(split, plan, seed=seed)
    edges = edges_from_stream(stream)
    g = greedy_matching(edges)
    out = match_run(edges, m_star)
    print(f"  perm seed {seed}: greedy {len(g)} ({len(g) / m_star:.2f}), "
          f"match {len(out)} ({len(out) / m_star:.2f})")

bound = float((1 + BETA**2 / 32) * (0.5 - float(EPS)) * m_star - 1)
print(f"certified case-1 floor: {bound:.2f}")

guessed = geometric_guess_run(edges, 0.1)
print(f"same stream, m* unknown (geometric guesses): {len(guessed)}")
print(f"exact optimum for reference: {len(exact_max_matching(edges))}")
