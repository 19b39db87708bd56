"""Independent checks for answers that are not frozen, written without the program.

Checks that compare two routes of the program (tuple complex against clique
complex, measure complex against clique complex) sit with their requests in
workloads.py.
"""


def matmul(A, B):
    Bt = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in Bt] for row in A]


def smith_form_ok(A, res):
    """U S V = A with U, V invertible over Z (checked against the returned inverses),
    and S diagonal with a nonnegative divisibility chain."""
    U, S, V = res.U, res.S, res.V
    m, n = len(A), len(A[0])
    if any(S[i][j] for i in range(m) for j in range(n) if i != j):
        return False
    diag = [S[i][i] for i in range(min(m, n))]
    nonzero = [d for d in diag if d]
    if any(d < 0 for d in nonzero) or diag[:len(nonzero)] != nonzero:
        return False
    if any(b % a for a, b in zip(nonzero, nonzero[1:])):
        return False
    if matmul(matmul(U, S), V) != A:
        return False
    return (matmul(U, res.U_inv) == identity(m)) and (matmul(V, res.V_inv) == identity(n))


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def component_count(points, pairs):
    parent = {p: p for p in points}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(p) for p in points})


def metric_balls(points, dist, scales, k):
    """Closed radius-k balls in the graph whose edges are pairs closer than some scale.

    The coarse structure of a metric document is generated by the relations
    d < r over its scales; their union is the relation at the largest scale.
    """
    r = max(scales)
    n = len(points)
    adj = [[j for j in range(n) if j != i and dist[i][j] < r] for i in range(n)]
    balls = []
    for i in range(n):
        ball, frontier = {i}, {i}
        for _ in range(k):
            frontier = {j for f in frontier for j in adj[f]} - ball
            ball |= frontier
        balls.append(frozenset(points[j] for j in ball))
    return balls


def greedy_net(points, balls):
    """Greedy net in point order: a point joins unless it lies in a net point's ball."""
    net = []
    for i, p in enumerate(points):
        if all(p not in balls[j] for j in net):
            net.append(i)
    return [points[i] for i in net]
