"""Benchmark inputs and the independent correctness oracle.

Inputs are simulated long reads made with the benchmark's own NumPy code
from the workload seed, so a change to the program's simulator can never
change what the benchmark measures.  The read model follows
``repro simulate --genome-length G --coverage C --read-length 2000``: a
random genome with 10% duplicated segments, log-normal read lengths of
about 2 kb (at least 500 bases, rescaled so that every seed yields exactly
coverage x genome bases), uniform start positions and i.i.d. substitution
errors.

The oracle reads the FASTQ back, packs every k-mer window (first base in
the most significant bits, the program's storage encoding) and counts
them with ``np.unique``.  It shares no code with the pipeline.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

K = 17  # the CLI's default k, used by every workload

_ASCII_TO_CODE = np.full(256, 4, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _ASCII_TO_CODE[_b] = _i
_DB_HEADER = struct.Struct("<4sHHq")  # magic, version, k, n_entries


# The read model every workload shares.
READ_MEAN = 2000
READ_SIGMA = 0.6  # of the underlying normal
MIN_READ = 500
REPEAT_FRACTION = 0.1
REPEAT_SEGMENT = 1000


@dataclass(frozen=True)
class InputSpec:
    """One simulated read set; ``name`` keys its cache files."""

    name: str
    genome_length: int
    coverage: float
    error_rate: float

    @property
    def error_ppm(self) -> int:
        return round(self.error_rate * 1e6)

    def key(self, seed: int) -> str:
        return f"{self.name}-g{self.genome_length}-c{self.coverage:g}-e{self.error_ppm}ppm-s{seed}"


def simulate_reads(spec: InputSpec, seed: int) -> list[np.ndarray]:
    """Read code arrays (values 0..3) for ``spec`` under ``seed``."""
    rng = np.random.default_rng([seed, spec.genome_length, spec.error_ppm])
    genome = np.empty(spec.genome_length, dtype=np.uint8)
    pos = 0
    while pos < spec.genome_length:
        n = min(REPEAT_SEGMENT, spec.genome_length - pos)
        if pos > n and rng.random() < REPEAT_FRACTION:
            src = int(rng.integers(0, pos - n))
            genome[pos : pos + n] = genome[src : src + n]
        else:
            genome[pos : pos + n] = rng.integers(0, 4, n, dtype=np.uint8)
        pos += n
    n_reads = int(round(spec.coverage * spec.genome_length / READ_MEAN))
    mu = np.log(READ_MEAN) - READ_SIGMA**2 / 2
    lengths = rng.lognormal(mu, READ_SIGMA, n_reads)
    lengths = np.clip(lengths, MIN_READ, spec.genome_length)
    # The same number of bases and reads, hence of k-mers, for every seed:
    # seeds change what is counted, not how much.
    target = n_reads * READ_MEAN
    lengths = np.maximum(np.round(lengths * target / lengths.sum()), MIN_READ).astype(np.int64)
    lengths[np.argmax(lengths)] += target - int(lengths.sum())
    starts = rng.integers(0, spec.genome_length - lengths + 1)
    reads = []
    for start, length in zip(starts.tolist(), lengths.tolist()):
        read = genome[start : start + length].copy()
        errors = rng.random(length) < spec.error_rate
        read[errors] = (read[errors] + rng.integers(1, 4, int(errors.sum()), dtype=np.uint8)) % 4
        reads.append(read)
    return reads


def write_fastq(fh, reads: list[np.ndarray]) -> None:
    letters = np.frombuffer(b"ACGT", dtype=np.uint8)
    for i, read in enumerate(reads):
        seq = letters[read].tobytes()
        fh.write(b"@r%d\n%s\n+\n%s\n" % (i, seq, b"I" * len(seq)))


def read_fastq_codes(path: Path) -> list[np.ndarray]:
    lines = Path(path).read_bytes().split(b"\n")
    return [_ASCII_TO_CODE[np.frombuffer(seq, dtype=np.uint8)] for seq in lines[1::4] if seq]


def reference_spectrum(reads: list[np.ndarray], k: int = K) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``(sorted k-mer values, counts)`` of every all-ACGT window."""
    parts = []
    for codes in reads:
        n = codes.shape[0] - k + 1
        if n <= 0:
            continue
        c = codes.astype(np.uint64)
        values = np.zeros(n, dtype=np.uint64)
        for j in range(k):
            values = (values << np.uint64(2)) | c[j : j + n]
        invalid = np.concatenate(([0], np.cumsum(codes > 3)))
        parts.append(values[invalid[k:] - invalid[:n] == 0])
    values = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
    keys, counts = np.unique(values, return_counts=True)
    return keys, counts.astype(np.int64)


def read_db(path: Path) -> tuple[int, np.ndarray, np.ndarray]:
    """``(k, values, counts)`` of a ``.rkdb`` file, read with NumPy only."""
    raw = Path(path).read_bytes()
    magic, _version, k, n = _DB_HEADER.unpack_from(raw)
    if magic != b"RKDB" or len(raw) != _DB_HEADER.size + 16 * n:
        raise ValueError(f"{path}: not a complete k-mer database")
    body = np.frombuffer(raw, dtype=np.uint8, offset=_DB_HEADER.size)
    values = body[: 8 * n].view("<u8")
    counts = body[8 * n :].view("<i8")
    return k, values, counts


@dataclass(frozen=True)
class PreparedInput:
    fastq: Path
    keys: np.ndarray
    counts: np.ndarray
    bases: int
    n_reads: int

    @property
    def kmers(self) -> int:
        return int(self.counts.sum())

    @property
    def distinct(self) -> int:
        return int(self.keys.shape[0])


def prepare(spec: InputSpec, seed: int, cache: Path) -> PreparedInput:
    """Generate (or reuse) the FASTQ and reference spectrum for one seed."""
    key = spec.key(seed)
    fastq, ref, meta = (cache / f"{key}.{ext}" for ext in ("fastq", "npz", "json"))
    if not meta.exists():
        cache.mkdir(parents=True, exist_ok=True)
        reads = simulate_reads(spec, seed)
        _publish(fastq, lambda fh: write_fastq(fh, reads))
        keys, counts = reference_spectrum(read_fastq_codes(fastq))
        _publish(ref, lambda fh: np.savez(fh, keys=keys, counts=counts))
        info = {"bases": int(sum(r.shape[0] for r in reads)), "n_reads": len(reads)}
        _publish(meta, lambda fh: fh.write(json.dumps(info).encode()))
    info = json.loads(meta.read_text())
    with np.load(ref) as data:
        keys, counts = data["keys"], data["counts"]
    return PreparedInput(fastq=fastq, keys=keys, counts=counts, bases=info["bases"], n_reads=info["n_reads"])


def _publish(path: Path, write) -> None:
    """Write through a temporary name so a cut-short run leaves no partial file."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as fh:
        write(fh)
    os.replace(tmp, path)
