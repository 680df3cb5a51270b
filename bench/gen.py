"""Seeded input generator for the ottosim benchmark.

Inputs depend only on ``(workload, seed)``; this module uses the standard
library only and never imports the program, so input generation stays
outside both the timed loop and the measured set-up.

Sizes and request kinds are stratified per block: every block of requests
holds one size from each stratum of the size distribution (and a fixed
share of each request kind), shuffled.  Two seeds therefore give different
inputs with the same cost profile, which keeps run-to-run spread small;
runs end on a block boundary.

Print the digest of a workload's inputs (to compare two seeds, or to check
that a seed reproduces)::

    python3 bench/gen.py --workload circuit_mix --seed 7
"""

import argparse
import hashlib
import json
import math
import random

WORKLOADS = ("dense_sweep", "noisy_report", "circuit_mix")

# Reference engine parameters: the `ottosim sweep` defaults.  Large x_c
# (where the cold state rounds to pure) is outside this traffic.
ENGINE = {"n": 2.0, "x_c": 3.0, "omega0_tau": math.pi}

DENSE_MIN, DENSE_MAX, DENSE_BLOCK, DENSE_POOL = 7, 128, 16, 2048
# sigma = 0.5 is left out: at that level both ports of a basis clamp to zero
# in about one request in twenty, and the sweep records a failed row.
NOISE_SIGMAS = (0.02, 0.1, 0.25)
NOISY_BLOCK_SWEEPS, NOISY_BLOCK_GOLDEN, NOISY_POOL = 7, 1, 4096
CIRCUIT_MIN, CIRCUIT_MAX, CIRCUIT_POOL = 2, 200, 8192

MALFORMED_CLASSES = {
    "random_bytes": "syntax",
    "bad_keyword": "syntax",
    "pd_out_of_range": "syntax",
    "ipd_without_pd": "compile",
    "nested_pd": "compile",
    "duplicate_tap": "compile",
    "n_le_1": "compile",
}
CIRCUIT_BLOCK_VALID = 3 * len(MALFORMED_CLASSES)  # a quarter of each block is malformed

_BAD_KEYWORDS = ("hwpp", "qwp2", "rotate", "expnd", "compres", "pdd", "ipdd",
                 "tomography", "initialize", "mirror", "pbs", "phase", "measure")
# first byte of a random-bytes source: never whitespace, '#' or a keyword's first letter
_RANDOM_FIRST = b"0123456789@$%&*+=?!<>"


def _stratified_sizes(rng, lo, hi, count):
    """The midpoints of ``count`` equal strata of a log-uniform size, shuffled.

    Every block holds the same sizes, so a run's cost does not depend on
    which seed drew them; the seed sets their order and the contents.
    """
    span = math.log(hi / lo)
    sizes = [round(lo * math.exp(span * (k + 0.5) / count)) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def dense_sweep(seed):
    """Noiseless sweeps over seeded theta_V sets of 7..128 angles in [0, 45]."""
    rng = random.Random(f"dense_sweep:{seed}")
    pool = []
    while len(pool) < DENSE_POOL:
        for size in _stratified_sizes(rng, DENSE_MIN, DENSE_MAX, DENSE_BLOCK):
            pool.append({"thetas": [rng.uniform(0.0, 45.0) for _ in range(size)]})
    return pool


def noisy_report(seed):
    """CLI argument lists: noisy JSON sweeps plus one `golden` in eight."""
    rng = random.Random(f"noisy_report:{seed}")
    pool = []
    while len(pool) < NOISY_POOL:
        block = [{"kind": "golden"}] * NOISY_BLOCK_GOLDEN * len(NOISE_SIGMAS)
        for sigma in NOISE_SIGMAS:
            block += [
                {"kind": "sweep", "sigma": sigma, "seed": rng.randrange(2**31)}
                for _ in range(NOISY_BLOCK_SWEEPS)
            ]
        rng.shuffle(block)
        pool += block
    return pool


def _angle(rng, lo, hi):
    """A one-decimal angle in [lo, hi] written as the formatter writes it."""
    return f"{rng.randint(round(lo * 10), round(hi * 10)) / 10:.1f}"


def _valid_instructions(rng, length):
    """Lines of a valid program of ``length`` instructions, and its ancilla states.

    ``joint[i]`` tells whether the path ancilla is active before instruction
    ``i`` runs (``joint[length]``: after the last one); the injection sites
    of malformed programs use it.
    """
    lines, joint = [], [False]
    taps = 0
    for i in range(length):
        if i == 0:
            op = "init"
        elif joint[-1]:
            op = rng.choices(("hwp", "qwp", "rot", "expand", "compress", "ipd", "tomo"),
                             (2, 2, 2, 1, 1, 3, 2))[0]
        else:
            op = rng.choices(("hwp", "qwp", "rot", "expand", "compress", "pd", "tomo", "init"),
                             (2, 2, 2, 1, 1, 3, 2, 0.3))[0]
        active = joint[-1]
        if op == "init":
            text = "init rc" if rng.random() < 0.5 else f"init thermal {_angle(rng, 0.1, 6.0)}"
        elif op in ("hwp", "qwp", "rot"):
            text = f"{op} {_angle(rng, -180.0, 180.0)}"
        elif op in ("expand", "compress"):
            text = f"{op} {rng.choice(('1.5', '2.0', '2.5', '3.0', '4.0'))} {_angle(rng, 0.0, 360.0)}"
        elif op in ("pd", "ipd"):
            text = f"{op} {_angle(rng, 0.0, 45.0)}"
            active = op == "pd"
        else:
            text = f"tomo t{taps}"
            taps += 1
        lines.append(text)
        joint.append(active)
    return lines, joint


def _render(rng, lines):
    """Join instruction lines, adding comments and blank lines that parse must skip.

    Returns the source and the 1-based line number of each instruction.
    """
    src, numbers = [], []
    for text in lines:
        if rng.random() < 0.05:
            src.append(rng.choice(("", "# stage", "   ")))
        numbers.append(len(src) + 1)
        src.append(text + ("  # note" if rng.random() < 0.05 else ""))
    return "\n".join(src) + "\n", numbers


def _malformed(rng, cls, size):
    """A source of class ``cls`` and the line its first error must name."""
    if cls == "random_bytes":
        raw = bytes([rng.choice(_RANDOM_FIRST)]) + rng.randbytes(rng.randint(7, 63))
        return {"bytes": raw.hex(), "line": 1}
    lines, joint = _valid_instructions(rng, max(size, 3))
    if cls == "bad_keyword":
        at = rng.randrange(len(lines))
        lines[at] = f"{rng.choice(_BAD_KEYWORDS)} {_angle(rng, 0.0, 45.0)}"
    elif cls == "pd_out_of_range":
        at = rng.randrange(len(lines) + 1)
        bad = _angle(rng, 45.1, 90.0) if rng.random() < 0.5 else _angle(rng, -45.0, -0.1)
        lines.insert(at, f"pd {bad}")
    elif cls == "ipd_without_pd":
        at = rng.choice([i for i in range(1, len(lines) + 1) if not joint[i]])
        lines.insert(at, f"ipd {_angle(rng, 0.0, 45.0)}")
    elif cls == "nested_pd":
        sites = [i for i in range(1, len(lines) + 1) if joint[i]]
        if sites:
            at = rng.choice(sites)
        else:
            lines.insert(1, f"pd {_angle(rng, 0.0, 45.0)}")
            at = 2
        lines.insert(at, f"pd {_angle(rng, 0.0, 45.0)}")
    elif cls == "duplicate_tap":
        first = rng.randint(1, len(lines))
        lines.insert(first, "tomo dup")
        at = rng.randint(first + 1, len(lines))
        lines.insert(at, "tomo dup")
    elif cls == "n_le_1":
        at = rng.randint(1, len(lines))
        n = rng.choice(("1.0", "0.5", "0.99", "-2.0"))
        lines.insert(at, f"{rng.choice(('expand', 'compress'))} {n} {_angle(rng, 0.0, 360.0)}")
    else:
        raise ValueError(cls)
    source, numbers = _render(rng, lines)
    return {"source": source, "line": numbers[at]}


def circuit_mix(seed):
    """.otto sources: valid programs of 2..200 instructions, a quarter malformed."""
    rng = random.Random(f"circuit_mix:{seed}")
    pool = []
    while len(pool) < CIRCUIT_POOL:
        block = []
        for size in _stratified_sizes(rng, CIRCUIT_MIN, CIRCUIT_MAX, CIRCUIT_BLOCK_VALID):
            lines, _ = _valid_instructions(rng, size)
            source, _ = _render(rng, lines)
            block.append({"source": source, "length": size,
                          "taps": [ln.split()[1] for ln in lines if ln.startswith("tomo")],
                          "cycles": sum(ln.startswith("ipd") for ln in lines)})
        sizes = _stratified_sizes(rng, CIRCUIT_MIN, CIRCUIT_MAX, len(MALFORMED_CLASSES))
        for cls, size in zip(MALFORMED_CLASSES, sizes):
            block.append({"malformed": cls, "expect": MALFORMED_CLASSES[cls],
                          **_malformed(rng, cls, size)})
        rng.shuffle(block)
        pool += block
    return pool


GENERATORS = {"dense_sweep": dense_sweep, "noisy_report": noisy_report, "circuit_mix": circuit_mix}


def generate(workload, seed):
    """The request pool of ``workload`` for ``seed``."""
    return GENERATORS[workload](seed)


def digest(pool):
    """SHA-256 of the canonical JSON form of a request pool."""
    return hashlib.sha256(json.dumps(pool, sort_keys=True).encode()).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    pool = generate(args.workload, args.seed)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "requests": len(pool), "digest": digest(pool)}))


if __name__ == "__main__":
    main()
