"""Segmented sieve of Eratosthenes plus a streamed omega kernel.

Everything else in the package consumes the primes produced here:
prime streams and counts, GapRecord scans for consecutive-prime gaps,
and blocks of omega, the distinct-prime-factor count. The sieve
kernel, _odd_segments, keeps one byte per odd integer of a segment. Each
segment starts as a tiled copy of one wheel pattern, the odd slots of a
period of 2 * 3 * 5 * 7 * 11 * 13 = 30,030 integers with the multiples
of 3..13 cleared (15 KB): two slices of the pattern fill one period,
which is then doubled within the segment. The wheel primes are set back
to prime and 1 is cleared. Each base prime p > 13 then strikes its odd
multiples from p^2 on, its next one carried from segment to segment.
Primes up to a thirty-second of the segment (at least sixteen
strikes per segment) strike by strided slices, their next multiples kept
in one array and advanced together. The rest sit in a second
next-multiple array (the buckets of Oliveira e Silva, Herzog and Pardi,
Math. Comp. 2014, whose segments are odd-only too): in rounds, its
entries below the segment's end are struck and advanced by 2p until none
is left. The public view is iter_prime_segments, a stream of each
segment's primes (2 included where in range). prime_census counts the
bits of each segment instead, reading the first and last prime by argmax,
and prime_count, the sieve command and stats pnt go through it. A range
wider than 16 * e * hi^(3/4) integers, e being 1 for lo <= 2 and 2 above
(the lattice evaluations), with sqrt(hi) <= 2^22, is not sieved: its count
is pi(hi - 1) - pi(lo - 1) from Legendre's identity evaluated on the
values floor(x / i) (_lattice_pi, Lucy's dynamic program, O(x^(3/4))
work in O(sqrt(x)) memory), and its first and last prime come from short
kernel windows at its ends. The kernel's refusals come first either way.
_range_bits builds the only full-length table, one read-only primality
byte per integer, for the GPY direct scan and the pigeonhole experiment.
_omega_blocks yields omega in blocks of min(segment_size, _OMEGA_BLOCK)
integers, in O(block + sqrt(hi)) memory: each prime p <= sqrt(hi) adds 1
at its multiples by slices and multiplies a per-integer product by p at
the multiples of p, p^2, ... that fall in the block; an integer whose
product falls short of it has exactly one more prime factor, above
sqrt(hi). mangoldt_range gives the von Mangoldt support as (n, prime,
exponent) arrays; log(p) floats only appear where summed.

The large streamed reductions split their range over the cores
(_fan_out): gap_scan without keep_all, the kernel census, and in stats
mertens_sums, erdos_kac and hardy_ramanujan_proportion. _plan cuts
[lo, hi) into one contiguous piece per core in os.sched_getaffinity(0),
at lo + j * segment_size (omega: on its block grid), so every segment
or block is the one a single pass walks; a range under _PIECE_MIN
integers, or a process without os.fork, runs as one piece, in process,
on the same path. The refusals and the base primes come first, once, in
the calling process. Every piece but the last runs in a forked child,
which sends back a small pickled partial over a pipe and is always
reaped. The partials merge in piece order by the rule each consumer
already applies between segments: the gap records join at the boundary
with strict comparisons, counts add, exact float sums add exactly. No
result depends on the core count.
"""

from __future__ import annotations

import functools
import math
import operator
import os
import pickle
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, TypeVar

import numpy as np

from .errors import CapacityError, EmptyRangeError, PrimelabError, ValidationError

DEFAULT_SEGMENT_SIZE = 1 << 20
DEFAULT_RANGE_CAP = 1 << 30


def _simple_prime_array(limit: int) -> np.ndarray:
    """Primes <= limit: one segment over [0, limit], base primes by recursion.

    Raises CapacityError, before allocating, when limit > DEFAULT_RANGE_CAP."""
    if limit > DEFAULT_RANGE_CAP:
        raise CapacityError(f"prime table up to {limit} exceeds the cap of {DEFAULT_RANGE_CAP} integers")
    if limit < 2:
        return np.array([], dtype=np.int64)
    ((_, primes),) = iter_prime_segments(0, limit + 1, limit + 1)
    return primes


_WHEEL_PRIMES = (3, 5, 7, 11, 13)  # presieved: they strike no segment


def _wheel() -> np.ndarray:
    """One period of odd slots with the multiples of the wheel primes cleared."""
    pattern = np.ones(math.prod(_WHEEL_PRIMES), dtype=bool)
    for p in _WHEEL_PRIMES:
        pattern[p // 2 :: p] = False  # odd n = 2s + 1 is a multiple of p iff s = p // 2 mod p
    pattern.flags.writeable = False
    return pattern


_WHEEL = _wheel()  # 15,015 slots, one period of 30,030 integers


def _presieved(s_lo: int, size: int) -> np.ndarray:
    """Slots s_lo .. s_lo + size - 1 of the wheel pattern, tiled in place:
    one period from two slices of _WHEEL, then doubled within itself."""
    bits = np.empty(size, dtype=bool)
    r = s_lo % _WHEEL.size
    head = _WHEEL[r : r + size]
    bits[: head.size] = head
    tail = _WHEEL[: min(r, size - head.size)]
    bits[head.size : head.size + tail.size] = tail
    filled = head.size + tail.size  # a whole period when it falls short of size
    while filled < size:
        n = min(filled, size - filled)
        bits[filled : filled + n] = bits[:n]
        filled += n
    return bits


def _check_segments(lo: int, hi: int, segment_size: int) -> None:
    """The kernel's refusals, in order: the range, the segment size, the cap."""
    if not 0 <= lo < hi:
        raise ValidationError(f"need 0 <= lo < hi, got [{lo}, {hi})")
    if segment_size < 1:
        raise ValidationError(f"segment_size must be >= 1, got {segment_size}")
    if min(segment_size, hi - lo) > DEFAULT_RANGE_CAP:
        raise CapacityError(
            f"segment of {min(segment_size, hi - lo)} integers exceeds the cap of "
            f"{DEFAULT_RANGE_CAP}; use a smaller segment_size"
        )


def _base_primes(hi: int) -> np.ndarray:
    """The odd base primes that strike segments below hi: 13 < p <= sqrt(hi - 1)."""
    odd = _simple_prime_array(math.isqrt(hi - 1))
    return odd[odd > _WHEEL_PRIMES[-1]]  # the wheel primes strike no segment


def _odd_segments(
    lo: int, hi: int, segment_size: int, *, base: Optional[np.ndarray] = None
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """Yield (seg_lo, seg_hi, first, bits) covering [lo, hi) in order.

    bits[i] is True iff first + 2i is an odd prime, with first = seg_lo | 1;
    the odd integers of [seg_lo, seg_hi) are the slots. Odd n sits at
    global slot n // 2, so a segment's slots are seg_lo // 2 .. seg_hi // 2.
    base is _base_primes(h) for some h >= hi (a piece's whole range); by
    default h = hi. A base prime whose square reaches hi strikes nothing.

    Raises:
        CapacityError: a segment would exceed DEFAULT_RANGE_CAP integers,
            before anything is allocated.
    """
    _check_segments(lo, hi, segment_size)
    odd = _base_primes(hi) if base is None else base
    # global slot of the next odd multiple of each odd base prime at or
    # after max(p^2, lo); one slot step is one step of 2p
    nxt = np.maximum(odd * odd, -(-lo // odd) * odd)
    nxt += odd * (nxt % 2 == 0)
    nxt //= 2
    small = odd <= segment_size // 32  # at least sixteen strikes per segment
    small_step, small_nxt = odd[small], nxt[small]
    live = ~small & (nxt < hi // 2)
    step, nxt = odd[live], nxt[live]
    for seg_lo in range(lo, hi, segment_size):
        seg_hi = min(seg_lo + segment_size, hi)
        s_lo, s_hi = seg_lo // 2, seg_hi // 2
        bits = _presieved(s_lo, s_hi - s_lo)
        for p in _WHEEL_PRIMES:
            if s_lo <= p // 2 < s_hi:
                bits[p // 2 - s_lo] = True
        bits[: max(1 - s_lo, 0)] = False  # the slot of 1
        act = small_nxt < s_hi
        s, p = small_nxt[act], small_step[act]
        for o, q in zip((s - s_lo).tolist(), p.tolist()):
            bits[o::q] = False
        small_nxt[act] = s - (s - s_hi) // p * p  # first slot at or past s_hi
        idx = np.flatnonzero(nxt < s_hi)
        while idx.size:
            bits[nxt[idx] - s_lo] = False
            nxt[idx] += step[idx]
            idx = idx[nxt[idx] < s_hi]
        yield seg_lo, seg_hi, seg_lo | 1, bits


def iter_prime_segments(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (segment_lo, int64 primes in the segment) covering [lo, hi) in order."""
    yield from _prime_segments(lo, hi, segment_size)


def _prime_segments(
    lo: int, hi: int, segment_size: int, base: Optional[np.ndarray] = None
) -> Iterator[tuple[int, np.ndarray]]:
    """iter_prime_segments, on the base primes of _odd_segments."""
    for seg_lo, seg_hi, first, bits in _odd_segments(lo, hi, segment_size, base=base):
        primes = np.flatnonzero(bits)
        primes *= 2
        primes += first
        if seg_lo <= 2 < seg_hi:
            primes = np.concatenate(([2], primes))
        yield seg_lo, primes


def _range_bits(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """Read-only primality bits of [lo, hi): bits[n - lo] is True iff n is prime.

    Raises:
        CapacityError: hi - lo exceeds DEFAULT_RANGE_CAP, after the kernel's
            refusals and before the table is allocated.
    """
    _check_segments(lo, hi, segment_size)
    if hi - lo > DEFAULT_RANGE_CAP:
        raise CapacityError(
            f"range of {hi - lo} integers exceeds the cap of {DEFAULT_RANGE_CAP}; "
            "scan it in pieces"
        )
    bits = np.zeros(hi - lo, dtype=bool)
    for _, seg_hi, first, seg_bits in _odd_segments(lo, hi, segment_size):
        bits[first - lo : seg_hi - lo : 2] = seg_bits
    if lo <= 2 < hi:
        bits[2 - lo] = True
    bits.flags.writeable = False
    return bits


# A shorter range runs as one piece. A fork and its pipe cost 2-3 ms; a dense
# gap_scan over 2^22 integers took 7.5 ms in one piece and 8.2 in two, over
# 2^23 integers 14.6 and 13.8 ms (the omega stream breaks even nearer 2^19).
_PIECE_MIN = 1 << 23


def _cores() -> int:
    """The cores this process may run on; 1 without os.fork or os.sched_getaffinity."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _plan(lo: int, hi: int, step: int) -> list[int]:
    """Cut points lo = c_0 < c_1 < ... < c_n = hi of the pieces of [lo, hi):
    one piece per core, at most one per step, each inner cut at lo + j * step
    with the steps shared out evenly; one piece below _PIECE_MIN integers."""
    steps = -(-(hi - lo) // step)
    n = min(_cores(), steps) if hi - lo >= _PIECE_MIN else 1
    return [lo + step * (steps * j // n) for j in range(n)] + [hi]


def _segment_plan(lo: int, hi: int, segment_size: int) -> tuple[list[int], np.ndarray]:
    """The kernel's refusals, then the cut points of [lo, hi) (_plan, one
    step per segment) and the base primes that every piece shares."""
    _check_segments(lo, hi, segment_size)
    return _plan(lo, hi, segment_size), _base_primes(hi)


_T = TypeVar("_T")


def _attempt(piece: Callable[[int, int], _T], a: int, b: int) -> tuple[bool, object]:
    """(True, piece(a, b)), or (False, the exception it raised)."""
    try:
        return True, piece(a, b)
    except Exception as exc:  # raised again by _fan_out, in piece order
        return False, exc


def _fork(piece: Callable[[int, int], _T], a: int, b: int) -> Optional[tuple[int, int]]:
    """Run piece(a, b) in a forked child: (pid, read end of its pipe), or
    None when no child can be started. The child pickles _attempt's outcome
    into the pipe and leaves by os._exit, never through the caller's frames;
    its status is 0 only once the outcome is written."""
    try:
        read, write = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                pickle.dump(_attempt(piece, a, b), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    return pid, read


def _fan_out(cuts: Sequence[int], piece: Callable[[int, int], _T]) -> list[_T]:
    """[piece(a, b) for each pair of consecutive cuts], in piece order.

    The last piece runs in this process, every other in a forked child
    (_fork; here too if no child can be started). The pipes are read to
    their end and the children reaped in piece order; on the way out of an
    interrupt every child still running is killed and reaped, so none
    outlives the call. The first piece to fail, in piece order, raises its
    exception here with its type and message; a child that ends without a
    result raises PrimelabError. Children fork rather than spawn: a spawned
    one would import numpy again, and a piece runs numpy's element-wise
    kernels only, never BLAS, whose threads a fork does not copy.
    """
    spans = list(zip(cuts, cuts[1:]))
    jobs: list[Optional[tuple[int, int]]] = []  # (pid, read end) until reaped
    try:
        for a, b in spans[:-1]:
            jobs.append(_fork(piece, a, b))
        jobs.append(None)
        outcomes = [_attempt(piece, a, b) if job is None else None for job, (a, b) in zip(jobs, spans)]
        for i, job in enumerate(jobs):
            if job is not None:
                pid, read = job
                with open(read, "rb", closefd=False) as pipe:
                    data = pipe.read()
                status = os.waitpid(pid, 0)[1]
                jobs[i] = None
                os.close(read)
                outcomes[i] = _received(data, status, *spans[i])
    finally:
        for job in jobs:  # left unreaped by an interrupt: kill, reap, close
            if job is not None:
                import signal  # loaded only on the way out of an interrupt

                os.kill(job[0], signal.SIGKILL)
                os.waitpid(job[0], 0)
                os.close(job[1])
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _received(data: bytes, status: int, a: int, b: int) -> tuple[bool, object]:
    """The outcome the child of piece [a, b) sent, or a PrimelabError."""
    if status == 0:
        try:
            return pickle.loads(data)
        except Exception:  # an exception whose class does not unpickle
            pass
    code = os.waitstatus_to_exitcode(status)
    return False, PrimelabError(f"the piece [{a}, {b}) ended without a result (exit status {code})")


_LATTICE_ROOT_CAP = 1 << 22  # isqrt(n) bound of _lattice_pi: four int64 arrays, 128 MiB at most
_LATTICE_RATIO = 16  # the lattice counts [lo, hi) when hi - lo > 16 * evaluations * hi^(3/4)
_END_WINDOW = 1 << 10  # integers in the first kernel window at each end of a lattice count


def _lattice_pi(n: int) -> int:
    """pi(n) by Legendre's sieve on the lattice of values floor(n / i).

    Lucy's dynamic program: S(v) starts as the count of 2..v, and each
    prime p <= sqrt(n) in turn removes from every v >= p^2 the integers
    whose least prime factor is p, S(v) -= S(v // p) - S(p - 1). Only
    v = floor(n / i) is ever read, so S lives in two int64 arrays of
    isqrt(n) + 1 entries: small[v] for v <= sqrt(n), large[i] for n // i
    (plus an index array and a scratch array of that length). Each prime
    is one vectorised update of each array; the right-hand sides gather
    the values from before the update. About n^(3/4) / log n element
    operations, exact in int64 for n < 2^63.
    """
    if n < 2:
        return 0
    r = math.isqrt(n)
    i = np.arange(r + 1, dtype=np.int64)
    small = i - 1
    large = np.empty(r + 1, dtype=np.int64)
    np.floor_divide(n, i[1:], out=large[1:])
    large -= 1
    quot = np.empty(r + 1, dtype=np.int64)  # scratch for the gather indices
    for p in _simple_prime_array(r).tolist():
        below = int(small[p - 1])  # pi(p - 1)
        top = min(r, n // (p * p))  # large[i] with n // i >= p^2
        mid = min(top, r // p)  # n // i // p = n // (i * p) is large[i * p] up to here
        large[1 : mid + 1] -= large[p : mid * p + 1 : p]
        large[1 : mid + 1] += below
        if top > mid:  # past it, n // (i * p) <= sqrt(n) is in small
            q = quot[: top - mid]
            np.multiply(i[mid + 1 : top + 1], p, out=q)
            np.floor_divide(n, q, out=q)
            large[mid + 1 : top + 1] -= small[q]
            large[mid + 1 : top + 1] += below
        if p * p <= r:
            q = quot[: r + 1 - p * p]
            np.floor_divide(i[p * p :], p, out=q)
            small[p * p :] -= small[q]
            small[p * p :] += below
    return int(large[1])


def _uses_lattice(lo: int, hi: int) -> bool:
    """Whether prime_census counts [lo, hi) on the lattice: sqrt(hi) is at
    most _LATTICE_ROOT_CAP and hi - lo > _LATTICE_RATIO * e * hi^(3/4),
    with e the lattice evaluations (pi(lo - 1) needs none for lo <= 2).
    The comparison is in integers, raised to the fourth power."""
    evaluations = 1 if lo <= 2 else 2
    return math.isqrt(hi - 1) <= _LATTICE_ROOT_CAP and (hi - lo) ** 4 > (
        _LATTICE_RATIO * evaluations
    ) ** 4 * hi**3


def _end_prime(lo: int, hi: int, segment_size: int, *, last: bool) -> Optional[int]:
    """The first (or last) prime of [lo, hi), from a kernel window at that
    end of _END_WINDOW integers, doubled until it holds a prime."""
    width = _END_WINDOW
    while True:
        w_lo, w_hi = (max(lo, hi - width), hi) if last else (lo, min(hi, lo + width))
        _, first_p, last_p = _kernel_census(w_lo, w_hi, segment_size)
        found = last_p if last else first_p
        if found is not None or w_hi - w_lo == hi - lo:
            return found
        width *= 2


def prime_census(
    lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> tuple[int, Optional[int], Optional[int]]:
    """(count, first, last) of the primes in [lo, hi); first and last are
    None when there is no prime.

    The kernel's refusals come first, in its order. A range wider than
    _LATTICE_RATIO * e * hi^(3/4) integers, e the lattice evaluations, with
    sqrt(hi) <= _LATTICE_ROOT_CAP, is counted as pi(hi - 1) - pi(lo - 1) by
    _lattice_pi, and its first and last prime are read from kernel windows
    at its two ends. Any other range is sieved and counted by the kernel.
    """
    _check_segments(lo, hi, segment_size)
    if not _uses_lattice(lo, hi):
        return _kernel_census(lo, hi, segment_size)
    count = _lattice_pi(hi - 1) - _lattice_pi(lo - 1)
    first = _end_prime(lo, hi, segment_size, last=False)
    return count, first, _end_prime(lo, hi, segment_size, last=True)


def _kernel_census(lo: int, hi: int, segment_size: int) -> tuple[int, Optional[int], Optional[int]]:
    """prime_census from the kernel's bits.

    Each segment is counted with count_nonzero; the first and last prime
    are read with argmax on the first and last segment that holds one, so
    no prime is listed. The pieces of _fan_out count apart: their counts
    add, the first prime is the first piece's that has one, the last the
    last piece's, so no result depends on the core count.
    """
    cuts, base = _segment_plan(lo, hi, segment_size)

    def piece(a: int, b: int) -> tuple[int, Optional[int], Optional[int]]:
        count, first, last, tail = 0, None, None, None
        for seg_lo, seg_hi, start, bits in _odd_segments(a, b, segment_size, base=base):
            if seg_lo <= 2 < seg_hi:  # 2 has no odd slot
                count, first, last = 1, 2, 2
            odd = int(np.count_nonzero(bits))
            if odd:
                count += odd
                if first is None:
                    first = start + 2 * int(np.argmax(bits))
                tail = start, bits
        if tail is not None:
            start, bits = tail
            last = start + 2 * (bits.size - 1 - int(np.argmax(bits[::-1])))
        return count, first, last

    parts = _fan_out(cuts, piece)
    firsts = [first for _, first, _ in parts if first is not None] or [None]
    lasts = [last for _, _, last in parts if last is not None] or [None]
    return sum(count for count, _, _ in parts), firsts[0], lasts[-1]


def prime_count(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE) -> int:
    """Exact count of primes <= x: prime_census over [0, x + 1), so on the
    lattice once x + 1 > _LATTICE_RATIO * (x + 1)^(3/4) (x >= 65,536) and
    sqrt(x) <= _LATTICE_ROOT_CAP, else segment by segment."""
    if x < 0:
        raise ValidationError(f"x must be >= 0, got {x}")
    return prime_census(0, x + 1, segment_size)[0]


def primes_between(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> np.ndarray:
    """All primes in [lo, hi) as one int64 array (materialized)."""
    return np.concatenate([ps for _, ps in iter_prime_segments(lo, hi, segment_size)])


def _crt_combine(roots: Iterable[tuple[int, Sequence[int]]]) -> tuple[list[int], int]:
    """Chinese remaindering over distinct primes.

    roots yields (p, allowed residues mod p). Returns every r in [0, M)
    whose reduction mod each p is allowed, and M, the product of the
    primes; no primes give ([0], 1).
    """
    residues, mod = [0], 1
    for p, allowed in roots:
        inv = pow(mod, -1, p)
        residues = [r + mod * ((s - r) * inv % p) for r in residues for s in allowed]
        mod *= p
    return residues, mod


def primorial(n: int) -> int:
    """Product of all primes <= n, exact."""
    if n < 2:
        raise ValidationError(f"primorial needs n >= 2, got {n}")
    return math.prod(_simple_prime_array(n).tolist())


_OMEGA_BLOCK = 1 << 18  # the largest block of _omega_blocks; no output depends on it


def _omega_primes(hi: int, segment_size: int) -> list[int]:
    """The refusals of _omega_blocks, then its primes p <= sqrt(hi - 1)."""
    if segment_size < 1:
        raise ValidationError(f"segment_size must be >= 1, got {segment_size}")
    if hi - 1 > DEFAULT_RANGE_CAP:
        raise CapacityError(f"tables up to {hi - 1} exceed the cap of {DEFAULT_RANGE_CAP} integers")
    return _simple_prime_array(math.isqrt(hi - 1)).tolist()


def _omega_plan(lo: int, hi: int, segment_size: int) -> tuple[list[int], list[int]]:
    """The refusals of _omega_blocks, then the cut points of [lo, hi) on its
    block grid (_plan, one step per block) and the primes every piece shares."""
    primes = _omega_primes(hi, segment_size)
    block = min(segment_size, _OMEGA_BLOCK)
    cuts = _plan(lo - lo % block, hi, block)
    cuts[0] = lo
    return cuts, primes


def _omega_blocks(
    lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE, primes: Optional[list[int]] = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (block_lo, omega) covering [lo, hi) in order, 1 <= lo < hi.

    omega[i] is the number of distinct prime factors of n = block_lo + i,
    as int8. Blocks end at multiples of min(segment_size, _OMEGA_BLOCK)
    (and at hi). part[i] is the product of the largest powers of the primes
    p <= sqrt(hi - 1) that divide n; it fits int32 under the cap, and where
    n > part, n / part is one more prime factor, above sqrt(hi - 1).
    primes, when given, is _omega_primes(h, segment_size) for some h >= hi
    (a piece's whole range); a prime above sqrt(n) divides n at most once.

    Raises:
        ValidationError: segment_size < 1, with the kernel's message.
        CapacityError: hi - 1 > DEFAULT_RANGE_CAP, before allocating.
    """
    if primes is None:
        primes = _omega_primes(hi, segment_size)
    block = min(segment_size, _OMEGA_BLOCK)
    b_lo = lo
    while b_lo < hi:
        b_hi = min(b_lo - b_lo % block + block, hi)
        omega = np.zeros(b_hi - b_lo, dtype=np.int8)
        part = np.ones(b_hi - b_lo, dtype=np.int32)
        for p in primes:
            omega[-b_lo % p :: p] += 1
            pk = p
            # a power with no multiple in the block has no higher one with one
            while (first := -b_lo % pk) < b_hi - b_lo:
                part[first::pk] *= p
                pk *= p
        omega += part != np.arange(b_lo, b_hi, dtype=np.int32)
        yield b_lo, omega
        b_lo = b_hi


def mangoldt_range(
    lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Von Mangoldt support on [lo, hi): arrays (n, p, m) sorted by n.

    n = p**m runs over the prime powers in range; log values are left to
    the caller so sums can control their own rounding. primes_between
    refuses a range without 0 <= lo < hi.
    """
    primes = primes_between(lo, hi, segment_size)
    powers = []
    for p in _simple_prime_array(math.isqrt(hi - 1)).tolist():
        pe, m = p * p, 2
        while pe < hi:
            if pe >= lo:
                powers.append((pe, p, m))
            pe *= p
            m += 1
    e = np.array(powers, dtype=np.int64).reshape(-1, 3)
    ns = np.concatenate([primes, e[:, 0]])
    order = np.argsort(ns)
    ps = np.concatenate([primes, e[:, 1]])
    ms = np.concatenate([np.ones(primes.size, dtype=np.int64), e[:, 2]])
    return ns[order], ps[order], ms[order]


@dataclass(frozen=True)
class GapRecord:
    """Consecutive-prime pair with its gap.

    Invariants: q is the next prime after p, gap = q - p, and the gap is
    even for p > 2.
    """

    p: int
    q: int
    gap: int


@dataclass(frozen=True)
class GapScan:
    min_gap: GapRecord
    max_gap: GapRecord
    records: Optional[tuple[GapRecord, ...]] = None


class _Gaps(NamedTuple):
    """The gaps of a run of consecutive primes: its first and last prime,
    the first smallest and first largest gap (None for one prime), and,
    under keep_all, every gap (else None)."""

    first: int
    last: int
    least: Optional[GapRecord]
    most: Optional[GapRecord]
    records: Optional[list[GapRecord]]


def _segment_gaps(ps: np.ndarray, keep_all: bool) -> Optional[_Gaps]:
    """The _Gaps of one segment's primes; None when it holds none."""
    if not ps.size:
        return None
    gaps = ps[1:] - ps[:-1]
    ends = (np.argmin(gaps), np.argmax(gaps)) if gaps.size else ()  # the first smallest and largest
    least, most = [GapRecord(int(ps[i]), int(ps[i + 1]), int(gaps[i])) for i in ends] or [None, None]
    records = list(map(GapRecord, ps[:-1].tolist(), ps[1:].tolist(), gaps.tolist())) if keep_all else None
    return _Gaps(int(ps[0]), int(ps[-1]), least, most, records)


def _join_gaps(a: Optional[_Gaps], b: Optional[_Gaps]) -> Optional[_Gaps]:
    """The _Gaps of run a followed by run b, a's record list extended in
    place. The boundary gap is weighed after a's records and before b's,
    and min and max keep the first of equal gaps, so ties stay with the
    smaller p."""
    if a is None or b is None:
        return b if a is None else a
    boundary = GapRecord(a.last, b.first, b.first - a.last)
    gap = operator.attrgetter("gap")
    least = min((rec for rec in (a.least, boundary, b.least) if rec is not None), key=gap)
    most = max((rec for rec in (a.most, boundary, b.most) if rec is not None), key=gap)
    if a.records is not None:
        a.records.extend([boundary, *b.records])
    return _Gaps(a.first, b.last, least, most, a.records)


def gap_scan(
    lo: int,
    hi: int,
    *,
    keep_all: bool = False,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
) -> GapScan:
    """Scan consecutive-prime gaps with both endpoints in [lo, hi).

    Returns the minimum and maximum gap; ties go to the smaller p: each
    segment's boundary gap is weighed first and only a strictly smaller
    (larger) gap wins. keep_all materializes the gap list (small ranges)
    in one piece; otherwise the pieces of _fan_out scan apart and join at
    their boundaries by the same rule, so no result depends on the core
    count.

    Raises:
        EmptyRangeError: fewer than two primes in [lo, hi).
    """
    cuts, base = _segment_plan(lo, hi, segment_size)

    def piece(a: int, b: int) -> Optional[_Gaps]:
        runs = (_segment_gaps(ps, keep_all) for _, ps in _prime_segments(a, b, segment_size, base))
        return functools.reduce(_join_gaps, runs, None)

    scan = functools.reduce(_join_gaps, _fan_out([lo, hi] if keep_all else cuts, piece), None)
    if scan is None or scan.least is None:
        raise EmptyRangeError(f"fewer than two primes in [{lo}, {hi})")
    return GapScan(scan.least, scan.most, None if scan.records is None else tuple(scan.records))
