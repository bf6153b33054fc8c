"""The two graph kernels under the groupoid code, in pure Python.

This is their only implementation. Every union-find in the package is
component_labels (ergodic decompositions, pair-groupoid indices, the
two-sided classes of a quotient, the skew-product components of a Mackey
range and the cycles of its translation, and the orbit counts of
dynamics.component_counts), and every permutation group closure is
perm_closure.
"""


def component_labels(n, sources, ranges):
    """Connected-component labels for n nodes under edges (sources[i], ranges[i]).

    Labels are compact and ordered by first occurrence, so label 0 is the
    component of the lowest-numbered node.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in zip(sources, ranges):
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    labels = [0] * n
    seen = {}
    for i in range(n):
        root = find(i)
        if root not in seen:
            seen[root] = len(seen)
        labels[i] = seen[root]
    return labels


def perm_closure(gens, bound):
    """Closure of permutation tuples under composition, BFS from the identity.

    Returns the element list in deterministic discovery order (identity
    first), or None if the closure exceeds bound. Every closure holds the
    identity, so a bound below 1 always gives None.
    """
    if bound < 1:
        return None
    if not gens:
        return [()]
    identity = tuple(range(len(gens[0])))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for elem in frontier:
            at = elem.__getitem__
            for gen in gens:
                composed = tuple(map(at, gen))
                if composed not in seen:
                    seen.add(composed)
                    elements.append(composed)
                    new_frontier.append(composed)
                    if len(elements) > bound:
                        return None
        frontier = new_frontier
    return elements
