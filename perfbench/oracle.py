"""Independent oracles for the benchmark's outputs.

Nothing here imports minishift: every check recomputes its answer from
first principles (iterating images by hand, scanning a long prefix,
folding a subgroup graph with union-find, composing permutation tuples),
so a defect in the library cannot hide behind the same defect here.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict


# ---------------------------------------------------------------- words


def iterate_to_length(images: dict[str, str], letter: str, length: int) -> str:
    """A factor of the subshift of length ``length``: a prefix of sigma^k(letter)."""
    w = letter
    stalled = 0
    while len(w) < length:
        nxt = "".join(images[c] for c in w)
        stalled = stalled + 1 if len(nxt) == len(w) else 0
        if stalled > len(images):
            raise ValueError("substitution does not grow")
        w = nxt
    return w[:length]


def shortlex(order: str):
    rank = {c: i for i, c in enumerate(order)}
    return lambda w: (len(w), [rank[c] for c in w])


def complexity_digest(counts: list[int]) -> str:
    return hashlib.sha1(",".join(map(str, counts)).encode()).hexdigest()[:16]


def check_factor_set(factors, by_length, prefix: str, horizon: int, letters: str):
    """Problems found in a certified factor set, as a list of strings.

    ``factors`` is the set, ``by_length[n]`` the library's words of length
    n.  Checks: factorial closure, every factor of ``prefix`` of length at
    most ``horizon`` is present, and each length class is exactly the
    members of that length in shortlex order.  Returns the complexity list.
    """
    problems = []
    fs = set(factors)
    for w in fs:
        if w and (w[1:] not in fs or w[:-1] not in fs):
            problems.append(f"not factorial at {w!r}")
            break
    # with closure under factors, checking the longest windows suffices
    width = min(horizon, len(prefix))
    for i in range(len(prefix) - width + 1):
        if prefix[i : i + width] not in fs:
            problems.append(f"missing prefix factor {prefix[i : i + width]!r}")
            break
    groups = defaultdict(list)
    for w in fs:
        groups[len(w)].append(w)
    key = shortlex(letters)
    counts = []
    for n in range(horizon + 1):
        expect = tuple(sorted(groups.get(n, ()), key=key))
        if tuple(by_length[n]) != expect:
            problems.append(f"words_of_length({n}) disagrees")
            break
        counts.append(len(expect))
    if sum(counts) != len(fs):
        problems.append("factors longer than the horizon")
    return problems, counts


# ---------------------------------------------------------------- returns


def return_scan(prefix: str, maxlen: int) -> dict[str, tuple[set, set, int]]:
    """Right/left return words and recurrence witness of every short factor.

    For each factor x of ``prefix`` with |x| <= maxlen: the right returns
    are the words between consecutive occurrences shifted by |x|, the left
    returns the words between consecutive starts, and the witness is the
    least n such that every length-n window of the prefix contains x.
    """
    last: dict[str, int] = {}
    right: dict[str, set] = defaultdict(set)
    left: dict[str, set] = defaultdict(set)
    gap: dict[str, int] = {}
    n = len(prefix)
    for i in range(n):
        for m in range(1, min(maxlen, n - i) + 1):
            x = prefix[i : i + m]
            j = last.get(x)
            if j is None:
                gap[x] = i + m  # window [0, i+m) is the first to contain x
            else:
                right[x].add(prefix[j + m : i + m])
                left[x].add(prefix[j:i])
                if i - j + m - 1 > gap[x]:
                    gap[x] = i - j + m - 1
            last[x] = i
    out = {}
    for x, j in last.items():
        # the longest window after the last occurrence must also contain x
        tail = n - j
        out[x] = (right[x], left[x], max(gap[x], tail))
    return out


# ---------------------------------------------------------------- free group


def is_free_basis(words, letters: str) -> bool:
    """True iff the reduced words are |letters| many and generate F(letters).

    Stallings folding with union-find: the subgroup is the whole group
    iff the folded graph is a single vertex carrying a loop per letter.
    """
    def reduce(w: str) -> str:
        out: list[str] = []
        for c in w:
            if out and out[-1] != c and out[-1].lower() == c.lower():
                out.pop()
            else:
                out.append(c)
        return "".join(out)

    gens = {reduce(w) for w in words} - {""}
    if len(gens) != len(letters):
        return False
    parent: list[int] = [0]
    edges: list[tuple[int, str, int]] = []

    def new() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    for w in gens:
        v = 0
        for i, c in enumerate(w):
            t = 0 if i == len(w) - 1 else new()
            edges.append((v, c, t) if c.islower() else (t, c.lower(), v))
            v = t

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    changed = True
    while changed:
        changed = False
        out: dict[tuple[int, str], int] = {}
        inc: dict[tuple[int, str], int] = {}
        for v, a, t in edges:
            v, t = find(v), find(t)
            for table, key, val in ((out, (v, a), t), (inc, (t, a), v)):
                old = table.get(key)
                if old is None:
                    table[key] = val
                elif find(old) != find(val):
                    parent[find(old)] = find(val)
                    changed = True
    vertices = {find(v) for v in range(len(parent))}
    loops = {(find(v), a, find(t)) for v, a, t in edges}
    return len(vertices) == 1 and {a for _, a, _ in loops} == set(letters)


# ---------------------------------------------------------------- extension


def classify_flags(fs, letters: str, max_length: int):
    """(neutral, connected, acyclic) over factors of length <= max_length."""
    neutral = connected = acyclic = True
    for w in fs:
        if len(w) > max_length:
            continue
        left = [a for a in letters if a + w in fs]
        right = [b for b in letters if w + b in fs]
        edges = [(a, b) for a in left for b in right if a + w + b in fs]
        if len(edges) - len(left) - len(right) + 1 != 0:
            neutral = False
        parent = {("L", a): ("L", a) for a in left}
        parent.update({("R", b): ("R", b) for b in right})

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        components = len(parent)
        cycle = False
        for a, b in edges:
            x, y = find(("L", a)), find(("R", b))
            if x == y:
                cycle = True
            else:
                parent[x] = y
                components -= 1
        if components > 1:
            connected = False
        if cycle:
            acyclic = False
    return neutral, connected, acyclic


# ---------------------------------------------------------------- episturmian


def palindromic_prefix(directive: str, length: int) -> str:
    """Prefix of the standard episturmian word directed by the repeated ``directive``."""
    u = ""
    i = 0
    while len(u) < length:
        u += directive[i % len(directive)]
        i += 1
        for k in range(len(u)):
            s = u[k:]
            if s == s[::-1]:
                u = u + u[:k][::-1]
                break
    return u


# ---------------------------------------------------------------- groups


def in_star(word: str, code) -> bool:
    """True iff ``word`` is a concatenation of words of ``code``."""
    ok = [True] + [False] * len(word)
    for i in range(1, len(word) + 1):
        ok[i] = any(ok[i - len(x)] and word.endswith(x, 0, i)
                    for x in code if len(x) <= i)
    return ok[-1]


def parse_cycles(text: str, domain: tuple) -> tuple:
    """Cycle notation as an image tuple over positions of ``domain``."""
    pos = {p: i for i, p in enumerate(domain)}
    img = list(range(len(domain)))
    for chunk in text.replace(")", "").split("("):
        pts = [int(t) for t in chunk.split()]
        for k, p in enumerate(pts):
            img[pos[p]] = pos[pts[(k + 1) % len(pts)]]
    return tuple(img)


def group_code_words(fs, images: dict[str, tuple], base: int) -> set[str]:
    """Factors whose point walk from ``base`` first returns to it at the end."""
    out = set()
    for w in fs:
        if not w:
            continue
        p = base
        for i, a in enumerate(w):
            p = images[a][p]
            if p == base:
                if i == len(w) - 1:
                    out.add(w)
                break
    return out


def image_orbit(subst: dict[str, str], images: dict, mul):
    """Letter images of sigma^n for n = 0, 1, ... until they repeat.

    Returns (orbit, preperiod, period): orbit[n][a] is the image of
    sigma^n(a), and orbit[preperiod + period] would equal orbit[preperiod].
    """
    letters = sorted(subst)
    orbit = [dict(images)]
    seen = {tuple(images[a] for a in letters): 0}
    while True:
        vec = orbit[-1]
        new = {}
        for a in letters:
            acc = None
            for b in subst[a]:
                acc = vec[b] if acc is None else mul(acc, vec[b])
            new[a] = acc
        key = tuple(new[a] for a in letters)
        if key in seen:
            return orbit, seen[key], len(orbit) - seen[key]
        seen[key] = len(orbit)
        orbit.append(new)


def h_order(subst: dict[str, str], images: dict, mul):
    """Least n >= 1 returning the letter images to the start.

    When the orbit cycles without returning, gives (None, preperiod, period).
    """
    _, pre, period = image_orbit(subst, images, mul)
    return period if pre == 0 else (None, pre, period)


def fib_factorial(m: int, offset: int, start: int, end: int) -> list[int]:
    """F(n! + offset) mod m for n in [start, end], via the Pisano period."""
    a, b, period = 0, 1, 0
    while True:
        a, b = b, (a + b) % m
        period += 1
        if (a, b) == (0, 1):
            break
    fib = [0, 1]
    while len(fib) < period + 1:
        fib.append((fib[-1] + fib[-2]) % m)
    out = []
    fact = 1
    for n in range(1, end + 1):
        fact *= n
        if n >= start:
            out.append(fib[(fact + offset) % period])
    return out
