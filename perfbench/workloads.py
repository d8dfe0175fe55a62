"""Request lists of the four benchmark workloads.

Every request is a ``bubble`` command line.  The seed sets the order of
the timed requests and sets ``ybe --seed``.  ``gram`` sends both labels
of every colour-mirrored pair: mirrored labels do not cost the same (the
blue side of a ``--roots`` request is 9-17% slower), so picking one side
by seed would make the load depend on the seed.  ``bubble check`` is left
out on purpose: its sizes are capped silently today and lifting the caps
would read as a slowdown.

A run makes a fixed number of passes over the timed list, set by
``--seconds`` and the nominal time of one pass, so ``attempted`` and
``failed`` depend on the seed alone and not on the host's speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("enumerate", "cache", "gram", "spectral")

# Seconds one pass over the timed list takes on the reference machine
# (2 vCPU Xeon at 2.1 GHz); only used to turn ``--seconds`` into a count.
NOMINAL_PASS_S = {"enumerate": 5.7, "cache": 5.5, "gram": 30.0, "spectral": 6.7}

# Gram requests: each entry is a colour-mirrored pair of (n, i, j, flags);
# ``{c}`` is the colour letter that matches the label's larger count.
_GRAM_PAIRS = (
    ((7, 1, 0), (7, 0, 1), "--det --roots {c}"),
    ((7, 2, 1), (7, 1, 2), "--det --blocks"),
    ((8, 4, 0), (8, 0, 4), "--det --roots {c}"),
    ((6, 1, 1), (6, 1, 1), "--det --blocks --roots b"),
    ((8, 6, 0), (8, 0, 6), "--det"),
    ((7, 4, 3), (7, 3, 4), "--det --roots {c}"),
)


@dataclass(frozen=True)
class Request:
    """One ``bubble`` command line; ``cached`` requests get ``--cache-dir``."""

    args: tuple[str, ...]
    cached: bool = False

    @property
    def key(self) -> str:
        """Command line without the cache directory: the key of its expected digests."""
        return " ".join(self.args)

    def argv(self, cache_dir: Path | None) -> list[str]:
        if self.cached:
            if cache_dir is None:
                raise ValueError(f"request {self.key!r} needs a cache directory")
            return [*self.args, "--cache-dir", str(cache_dir)]
        return list(self.args)


@dataclass(frozen=True)
class Plan:
    """What one run sends: untimed set-up requests, then the timed list."""

    workload: str
    seed: int
    setup: tuple[Request, ...]
    requests: tuple[Request, ...]

    @property
    def uses_cache(self) -> bool:
        return any(r.cached for r in self.setup + self.requests)


def _req(line: str, cached: bool = False) -> Request:
    return Request(tuple(line.split()), cached)


def gram_request(label: tuple[int, int, int], flags: str) -> Request:
    n, i, j = label
    colour = "r" if i >= j else "b"
    return _req(f"gram --n {n} --i {i} --j {j} " + flags.format(c=colour))


def passes(workload: str, seconds: float) -> int:
    """Passes a run makes: ``seconds`` in nominal passes, rounded, at least one."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def all_gram_requests() -> list[Request]:
    """Both sides of every mirrored pair: what expected digests must cover."""
    out = []
    for red, blue, flags in _GRAM_PAIRS:
        for label in dict.fromkeys((red, blue)):
            out.append(gram_request(label, flags))
    return out


def plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    setup: list[Request] = []
    if workload == "enumerate":
        requests = [
            _req("dims --n 6"),
            _req("basis --n 6 --diagrams"),
            _req("basis --n 5 --diagrams"),
        ]
    elif workload == "cache":
        # set-up writes both files; every timed request is then a hit
        setup = [_req("basis --n 6", True), _req("basis --n 5", True)]
        requests = [
            _req("basis --n 6", True),
            _req("basis --n 6 --diagrams", True),
            _req("basis --n 5", True),
        ]
    elif workload == "gram":
        requests = [gram_request(label, flags) for red, blue, flags in _GRAM_PAIRS for label in (red, blue)]
    elif workload == "spectral":
        requests = [
            _req("rep --n 3 --qr 2+0.5j --qb 1.5-0.25j --check"),
            _req(f"ybe --family bubble --sweep 20 --transfer 5 --seed {rng.randrange(1, 2**31)}"),
            _req(f"ybe --family tl --sweep 20 --transfer 8 --seed {rng.randrange(1, 2**31)}"),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(requests)
    return Plan(workload, seed, tuple(setup), tuple(requests))


# One short request per workload, used by the self-test.
SHORT = {
    "enumerate": _req("basis --n 5 --diagrams"),
    "cache": _req("basis --n 5", True),
    "gram": _req("gram --n 8 --i 6 --j 0 --det"),
    "spectral": _req("ybe --family tl --sweep 20 --transfer 8 --seed 7"),
}
