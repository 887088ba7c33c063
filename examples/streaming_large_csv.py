"""Constant-memory ingestion of a large CSV (paper Figure 15's premise).

ARCS "requires only a constant amount of main memory regardless of the
size of the database" because the binner streams tuples into the
fixed-size BinArray.  This example writes a multi-hundred-thousand-row
CSV to disk, streams it back in bounded chunks, and shows that the
resident state (the BinArray) is the same few hundred KiB it would be
for a table 100x smaller — then fits the segmentation from those counts
alone.

Run:  python examples/streaming_large_csv.py
"""

import tempfile
import time
from pathlib import Path

import repro
from repro.binning.binner import Binner
from repro.core.clusterer import GridClusterer
from repro.core.optimizer import segmentation_from_outcome
from repro.data.io import stream_csv, write_csv
from repro.data.synthetic import DEMOGRAPHIC_ATTRIBUTES, GROUP_ATTRIBUTE
from repro.mining.engine import rule_measures

N_TUPLES = 300_000
CHUNK_ROWS = 20_000


def main() -> None:
    specs = list(DEMOGRAPHIC_ATTRIBUTES) + [GROUP_ATTRIBUTE]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "customers.csv"
        print(f"writing {N_TUPLES:,} tuples to {path.name} ...")
        table = repro.generate_synthetic(
            repro.SyntheticConfig(n_tuples=N_TUPLES, seed=17)
        )
        write_csv(table, path)
        print(f"on disk: {path.stat().st_size / 1e6:.1f} MB")

        # Fit layouts on a small prefix (declared domains drive the
        # equi-width edges, so any schema-true sample works), then
        # stream the file through in bounded chunks.
        reference = table.head(1_000)
        binner = Binner.fit(reference, "age", "salary", "group", 50, 50)
        del table  # from here on, only the stream and the BinArray

        start = time.perf_counter()
        n_chunks = 0
        for chunk in stream_csv(path, specs, chunk_rows=CHUNK_ROWS):
            binner.consume(chunk)
            n_chunks += 1
        elapsed = time.perf_counter() - start

        bin_array = binner.bin_array
        resident_kib = (
            bin_array.counts.nbytes + bin_array.totals.nbytes
        ) / 1024
        print(f"streamed {bin_array.n_total:,} tuples in {n_chunks} "
              f"chunks of {CHUNK_ROWS:,} rows: {elapsed:.1f}s")
        print(f"resident state: {resident_kib:.0f} KiB of counters "
              f"(independent of |D|)")

        code = binner.rhs_encoding.code_of("A")
        outcome = GridClusterer().cluster(rule_measures(bin_array, code),
                                          0.0002, 0.7)
        segmentation = segmentation_from_outcome(
            outcome, bin_array, code
        )
        print("\nsegmentation mined from the streamed counts:")
        print(segmentation.describe())


if __name__ == "__main__":
    main()
