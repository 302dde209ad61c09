"""Kauffman bracket of a braid closure by Temperley-Lieb transfer.

Each braid letter is represented in the Temperley-Lieb algebra TL_n as
sigma_i -> A + A^-1 e_i (inverse letters swap A and A^-1), acting on a
vector indexed by crossingless matchings of the 2n boundary points.  The
closure is taken with the Markov trace: a matching closing into k loops
contributes delta^(k-1).

Before it is read the word is changed twice, and neither change moves
the bracket.  A letter is cancelled against a later inverse when every
letter between commutes with it (|i - j| >= 2): far commutations bring
the two together and Reidemeister II removes them, so the braid is the
same.  The word is then rotated, which conjugates the braid and keeps
its closure, to start just after the largest gap between letters of
sigma_1, or of sigma_(n-1), whichever start costs less; a word costs
the sum over its letters of Catalan(open strands), the size of the basis
each letter may reach.  So read, the word leaves its end strands idle
before it ends.  The Markov trace on TL_n is a conditional expectation
onto TL_(n-1) followed by the trace there (Jones, Bull. AMS 12, 1985),
so as soon as no later letter touches the leftmost or the rightmost
strand, that strand is closed: its top and bottom points, neighbours on
the boundary, are joined in every entry's matching, a closed loop folds
in as a factor delta, equal matchings merge, and the call goes on in
the basis of TL_(n-1) with the generators renumbered.  A strand that no
letter touches closes before the first letter into a loop of its own,
which is counted at the end.  Each strand a later letter needs stays
open, so two or more are open whenever one closes.  Cancelling keeps a
stack of live letters per generator, and the closing times are running
maxima of each generator's last position, so both are linear in the
word length.

Coefficients are packed by Kronecker substitution (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 8).  Every exponent in the
vector has the parity of the letters read so far, so each entry is one
Python int whose signed slots of ``width`` bits hold the coefficients of
A^low, A^(low+2), A^(low+4), ..., the format of ``poly.pack`` and
``poly.unpack``, and the whole vector shares the running exponent
``low``.  A letter g > 0 lowers ``low`` by 3: the identity term
A * v is then ``v << 2 * width`` and the e_j term A^-1 * v is
``v << width``.  A letter g < 0 lowers ``low`` by 1: the identity term
A^-1 * v is ``v`` and the e_j term A * v is again ``v << width``.  When
e_j closes a loop, the identity term and the loop term A^-+1 * delta * v
add up to the curl factor -A^-3 * v (g > 0) or -A^3 * v (g < 0), that
is ``-v`` or ``-(v << 2 * width)``.  Once every k letters, with k the
strands open, the slots that are zero in every entry are shifted out
and ``low`` rises to match; without that the ints would carry about
three empty low slots for every two letters.

An int is the value of its slot polynomial at 2^width, and every step
is a ring operation, so intermediate slots may overflow and borrow
freely; only the final bracket has to fit its slots to decode.  Measure
a vector by the sum of the absolute values of all its coefficients.  A
letter at most doubles it (the curl term keeps it), closing one strand
at most doubles it (delta has measure 2, and merging only adds), and
the closure of the k strands left multiplies it by at most 2^(k-1), so
every coefficient of the bracket of a c-letter word on n strands is at
most 2^(c+n-1) in absolute value.  The bound is on the word that is
read, so c counts the letters left after cancelling, and ``slot_width``
of that word holds it with a sign bit: "4: 1 3 -1 -3 ... 2 2", 34
letters that cancel to 2, gets 7-bit slots, not 39.  The guards of
``poly.check_bracket`` take the writhe w and the number of components
mu, the number of cycles of the strand permutation, from the input word,
whose closure is the link the call computes; ``bracket`` raises
RuntimeError if either fails.

The vector is a list indexed by matching id, and matchings get ids in
the order they are first reached.  Every image of e_j is a matching in
which e_j closes a loop, so each generator j keeps, for the length of a
call, a table from each such loop id l to the ids that e_j sends to l.
The table is extended when a letter starts, over the ids reached since
its last extension; an id whose entry is zero then waits for a later
letter, because e_j of it would only add ids that stay zero, and an id
that is already in the table is a loop id with nothing to add.  A letter
g > 0 is one list comprehension for the identity term ``v << 2 * width``,
after which each loop id l gets ``(sum of its preimages' values <<
width) - v_l``.  A letter g < 0 leaves every other entry as it is and
gives l the value ``(sum << width) - (v_l << 2 * width)``.  A letter so
costs a shift per id and an add per preimage, with no dict lookups.

The matchings, the images of e_j, the closures of end strands and the
closure loop counts do not depend on the word, so a run keeps them from
one call to the next in a ``Tables`` object: per strand count, the
matchings it has reached by run id, the run id of each image a call has
looked up, where closing the leftmost or the rightmost strand takes each
id a call has closed, and the loop count of each id a call has ended
nonzero on.  The values, ``low``, the width, the idle lists and the loop
tables stay with the call.  A call numbers the matchings it reaches in
its own order, anew after each closure, so that its vector covers those
alone however many the run knows, and maps its ids to run ids to look
up images, closures and loop counts; only what the run does not know
yet costs ``apply_e`` or ``close_strand`` and a lookup of the matching
it gives.  The first call on a strand count, when the run knows nothing
but the identity, takes the run ids as its own and keeps no images
until it closes a strand, which spares a single call the mapping and
the stores; the calls after it fill the images in.  A library call
given no tables starts from fresh ones.

This module shares no skein code with the state-sum route.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from operator import or_

from .braid import BraidWord
from .poly import LaurentPoly, check_bracket, pack, unpack


def identity_matching(n: int) -> tuple[int, ...]:
    return tuple(2 * n - 1 - i for i in range(2 * n))


def apply_e(m: tuple[int, ...], j: int, n: int) -> tuple[int, ...]:
    """Stack generator e_j on top of matching ``m``.

    Returns ``m`` itself exactly when a closed loop was absorbed (worth
    one factor of delta); otherwise the new matching differs from ``m``.
    """
    p, q = 2 * n - j - 1, 2 * n - j
    if m[p] == q:
        return m
    a, b = m[p], m[q]
    out = list(m)
    out[a], out[b] = b, a
    out[p], out[q] = q, p
    return tuple(out)


def close_strand(m: tuple[int, ...], n: int, left: bool) -> tuple[tuple[int, ...], bool]:
    """Join the top and bottom points of the leftmost or rightmost strand of ``m``.

    Returns the matching of the other n - 1 strands and whether a closed
    loop was formed (worth one factor of delta).  The two points are
    next to each other on the boundary, so the result has no crossing.
    """
    p, q = (0, 2 * n - 1) if left else (n - 1, n)
    a, b = m[p], m[q]
    out = list(m)
    out[a], out[b] = b, a
    del out[q], out[p]
    drop = 1 if left else 2  # the points above p move down past one or both
    return tuple([y - drop if y > p else y for y in out]), a == q


def closure_loops(m: tuple[int, ...], n: int) -> int:
    """Loops formed when the trace closure joins top point i to bottom i."""
    seen = [False] * (2 * n)
    loops = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        loops += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]
            seen[y] = True
            x = 2 * n - 1 - y  # matching edge, then closure edge
    return loops


def slot_width(crossings: int, strands: int) -> int:
    """Bits per packed coefficient: c+n for |coefficient| <= 2^(c+n-1), one for the sign."""
    return crossings + strands + 1


def _packed_delta_power(k: int, width: int) -> int:
    """delta^k in slots one A^2 apart, starting at A^(-2k).

    delta^k = (-1)^k sum_j C(k, j) A^(4j-2k), so slot 2j holds (-1)^k C(k, j)
    and the odd slots are zero: the binomials joined in fields of two slots.
    """
    binomials = [1]
    for j in range(k):
        binomials.append(binomials[-1] * (k - j) // (j + 1))
    packed = pack(binomials, 2 * width)
    return -packed if k % 2 else packed


def _cycle_count(perm: list[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x] - 1
    return cycles


class Tables:
    """What one run of the transfer keeps from one call to the next.

    For each strand count n: the matchings the run has reached and their
    run ids, the run id of e_j of every run id whose image a call has
    looked up, the closure loop count of every run id on which a call
    has ended nonzero, and where closing an end strand sends every run
    id a call has closed.  Nothing else is kept.  A tables object takes
    no lock, so it belongs to one thread.
    """

    def __init__(self) -> None:
        # n -> (matchings, ids, images, loops, closes).  images[j][r] is
        # the run id of e_j of run id r, r itself when e_j closes a loop
        # there, and loops[r] the closure loop count of r.  closes[0][r]
        # and closes[1][r] are 2 r' + loop for closing the rightmost and
        # the leftmost strand of r, with r' the run id of the result on
        # n - 1 strands and loop 1 when a loop closed.  None or past the
        # end of its list is not known yet.
        self.bases: dict[int, tuple[list, dict, list[list], list, tuple[list, list]]] = {}

    def basis(self, n: int) -> tuple[list, dict, list[list], list, tuple[list, list]]:
        basis = self.bases.get(n)
        if basis is None:
            start = identity_matching(n)
            basis = self.bases[n] = ([start], {start: 0}, [[] for _ in range(n)], [], ([], []))
        return basis


def _intern(matchings: list, ids: dict, m: tuple[int, ...]) -> int:
    """The run id of matching ``m``, given the next one if it is new."""
    r = ids.get(m)
    if r is None:
        # append first: an interrupt here must not leave an id that the
        # next new matching would get again
        matchings.append(m)
        r = ids[m] = len(matchings) - 1
    return r


def _cancel(letters: tuple[int, ...], n: int) -> list[int]:
    """The word with each letter cancelled against a later inverse across
    letters that commute with it.

    A letter is live until cancelled.  Each generator keeps a stack of
    the positions of its live letters, so that a letter meets the last
    live letter of its own generator and of the two next to it in
    constant time: it cancels the first when that is its inverse and
    neither of the others comes after it.
    """
    out: list[int] = []
    live: list[list[int]] = [[] for _ in range(n + 1)]
    for g in letters:
        j = abs(g)
        own = live[j]
        if own:
            t = own[-1]
            if out[t] == -g:
                below, above = live[j - 1], live[j + 1]
                if (not below or below[-1] < t) and (not above or above[-1] < t):
                    out[own.pop()] = 0
                    continue
        own.append(len(out))
        out.append(g)
    return [g for g in out if g]


def _closing_times(letters: list[int], n: int) -> tuple[list[int], list[int]]:
    """For s = 0, 1, ..., n - 2: the last position of a letter that
    touches one of the s + 1 strands at the left end, and at the right
    end, or -1 if none does.
    """
    last = [-1] * (n + 1)
    for t, g in enumerate(letters):
        last[abs(g)] = t
    return list(accumulate(last[1:n], max)), list(accumulate(last[n - 1 : 0 : -1], max))


def _rotated(letters: list[int], n: int) -> tuple[list[int], list[int], list[int]]:
    """The rotation of the word that ends with the largest gap between
    letters of sigma_1, or of sigma_(n-1), whichever leaves fewer
    matchings to carry: the sum over letters of Catalan(open strands).
    Returns the word with the ``_closing_times`` its cost was taken from.
    """
    catalan = [1]
    for k in range(n):
        catalan.append(catalan[-1] * 2 * (2 * k + 1) // (k + 2))
    best, best_cost = None, None
    for j in (1, n - 1):
        at = [t for t, g in enumerate(letters) if abs(g) == j]
        if not at:
            continue
        # the gap that ends at at[i], the one from the last to the first wrapping round
        gaps = [(at[i] - at[i - 1]) % len(letters) or len(letters) for i in range(len(at))]
        start = at[gaps.index(max(gaps))]
        word = letters[start:] + letters[:start]
        lefts, rights = _closing_times(word, n)
        closing = [0] * (len(word) + 1)
        for t in lefts + rights:
            closing[t + 1] += 1
        cost = sum(catalan[n - closed] for closed in accumulate(closing[:-1]))
        if best_cost is None or cost < best_cost:
            best, best_cost = (word, lefts, rights), cost
    if best is None:  # no letter of sigma_1 or sigma_(n-1) to rotate to
        return (letters, *_closing_times(letters, n))
    return best


def bracket(b: BraidWord, tables: Tables | None = None) -> LaurentPoly:
    """Kauffman bracket of the closure of ``b``, normalized to <unknot> = 1.

    ``tables`` carries the matchings, e_j images, closures and closure
    loop counts of earlier calls in the same run; without it the call
    starts from fresh tables.  Raises RuntimeError if the decoded
    bracket fails the check at A = 1 or at A = e^(i pi/3).
    """
    n = b.strands
    word, lefts, rights = _rotated(_cancel(b.letters, n), n)
    width = slot_width(len(word), n)
    curl = 2 * width
    tables = Tables() if tables is None else tables
    # Strands no letter touches close before the first letter, each into
    # a loop of its own, and are counted at the end.
    left = right = 0  # strands closed at each end
    if word:
        while lefts[left] < 0:
            left += 1
        while rights[right] < 0:
            right += 1
    free = left + right
    k = n - free
    matchings, ids, images, loop_counts, closes = tables.basis(k)
    # The call numbers the matchings in the order it reaches them, so that
    # its vector covers those alone; run_of and local map between these
    # call ids and run ids.  Until its first closure, a call on a strand
    # count that the run has reached nothing on takes the run ids as its
    # own (``fresh``) and looks up no images.
    fresh = len(matchings) == 1
    run_of, local = [0], {0: 0}
    # pre[j][l]: the ids that e_j sends to l, for every l in which e_j
    # closes a loop.  It covers the ids below known[j] except those in
    # idle[j], which were zero when it was extended.
    pre, known, idle = [{} for _ in range(k)], [0] * k, [[] for _ in range(k)]
    vec = [1]
    low = 0
    for step, g in enumerate(word, 1):
        j = abs(g) - left
        table = pre[j]
        if idle[j] or known[j] < len(vec):
            todo = idle[j] + list(range(known[j], len(vec)))
            idle[j] = []
            image = images[j]
            image += [None] * (len(matchings) - len(image))
            for m in todo:
                if m in table:  # an image of e_j: e_j closes a loop there
                    continue
                if not vec[m]:
                    idle[j].append(m)
                    continue
                if fresh:
                    source = matchings[m]
                    target = apply_e(source, j, k)
                    if target is source:
                        table.setdefault(m, [])
                        continue
                    m2 = ids.get(target)
                    if m2 is None:
                        matchings.append(target)
                        m2 = ids[target] = len(matchings) - 1
                        run_of.append(m2)
                        vec.append(0)
                    table.setdefault(m2, []).append(m)
                    continue
                r = run_of[m]
                t = image[r]
                if t is None:
                    source = matchings[r]
                    target = apply_e(source, j, k)
                    t = image[r] = r if target is source else _intern(matchings, ids, target)
                if t == r:
                    table.setdefault(m, [])
                    continue
                m2 = local.get(t)
                if m2 is None:
                    m2 = local[t] = len(run_of)
                    run_of.append(t)
                    vec.append(0)
                table.setdefault(m2, []).append(m)
            known[j] = len(vec)
        if g > 0:
            low -= 3
            nxt = [v << curl for v in vec]
            for m, ps in table.items():
                total = 0
                for p in ps:
                    total += vec[p]
                nxt[m] = (total << width) - vec[m]
            vec = nxt
        else:
            low -= 1
            # e_j maps only non-loop ids into loop ids, and the identity
            # term leaves non-loop entries as they are
            for m, ps in table.items():
                total = 0
                for p in ps:
                    total += vec[p]
                vec[m] = (total << width) - (vec[m] << curl)
        if not step % k:  # drop the slots that are zero in every entry
            lowest = reduce(or_, vec, 0)
            drop = ((lowest & -lowest).bit_length() - 1) // width
            if drop > 0:
                bits = drop * width
                vec = [v >> bits for v in vec]
                low += 2 * drop
        # close each end strand that no later letter touches
        while step < len(word) and (lefts[left] < step or rights[right] < step):
            side = lefts[left] < step  # True for the leftmost strand
            left += side
            right += not side
            image = closes[side]
            image += [None] * (len(matchings) - len(image))
            k -= 1
            basis = tables.basis(k)
            sums: dict[int, int] = {}  # by 2 r' + loop
            for m, v in enumerate(vec):
                if v:
                    r = run_of[m]
                    t = image[r]
                    if t is None:
                        target, loop = close_strand(matchings[r], k + 1, side)
                        t = image[r] = 2 * _intern(basis[0], basis[1], target) + loop
                    sums[t] = sums.get(t, 0) + v
            # a loop is a factor delta = -A^2 - A^-2, one slot either side
            looped = any(t & 1 for t in sums)
            low -= 2 * looped
            local, vec = {}, []
            for t, v in sums.items():
                m = local.setdefault(t >> 1, len(vec))
                if m == len(vec):
                    vec.append(0)
                vec[m] += -(v << curl) - v if t & 1 else v << width * looped
            run_of, fresh = list(local), False
            matchings, ids, images, loop_counts, closes = basis
            pre, known, idle = [{} for _ in range(k)], [0] * k, [[] for _ in range(k)]

    loop_counts += [None] * (len(matchings) - len(loop_counts))
    by_loops: dict[int, int] = {}
    for m, v in enumerate(vec):
        if v:
            r = run_of[m]
            loops = loop_counts[r]
            if loops is None:
                loops = loop_counts[r] = closure_loops(matchings[r], k)
            by_loops[loops + free] = by_loops.get(loops + free, 0) + v
    # Horner's rule over the loop counts, highest first, so that each delta
    # power is built and multiplied once per gap between counts: after
    # count l, packed holds the sum over l' >= l of v_l' delta^(l'-l),
    # with slot 0 at A^(low - 2 (top - l))
    levels = sorted(by_loops, reverse=True)
    top = prev = levels[0] if levels else 1
    packed = 0
    for loops in levels:
        packed = packed * _packed_delta_power(prev - loops, width) + (
            by_loops[loops] << (top - loops) * width
        )
        prev = loops
    packed *= _packed_delta_power(prev - 1, width)
    table = unpack(packed, low - 2 * (top - 1), width)
    return check_bracket(table, b.writhe(), _cycle_count(b.permutation()), width, "transfer")
