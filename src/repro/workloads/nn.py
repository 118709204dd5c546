"""NN — nearest neighbours over geographic records (Rodinia nn).

Computes the Euclidean distance from a query point to every record
(latitude/longitude pair) and returns the distances of the k closest records.
The record array and the distance scratch array are the two approximable
regions (#AR = 2); the error metric is the MRE of the reported k-nearest
distances.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.error import mean_relative_error_percent
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.datagen import quantize_varying, spatial_points


def nearest_neighbors(
    records: np.ndarray, query: tuple[float, float], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distances and indices of the ``k`` records closest to ``query``.

    Ties keep record order, as a stable sort of every distance would: the
    records no farther than the k-th smallest distance are the only
    candidates, and only they are sorted.
    """
    records = np.asarray(records, dtype=np.float64)
    if records.ndim != 2 or records.shape[1] != 2:
        raise ValueError("records must have shape (n, 2)")
    if not 1 <= k <= records.shape[0]:
        raise ValueError("k must lie between 1 and the number of records")
    deltas = records - np.asarray(query, dtype=np.float64)
    distances = np.sqrt(np.sum(deltas**2, axis=1))
    kth = np.partition(distances, k - 1)[k - 1]
    # NaN sorts last: not farther than a NaN k-th distance means every record
    candidates = np.flatnonzero(~(distances > kth))
    order = candidates[np.argsort(distances[candidates], kind="stable")[:k]]
    return distances[order].astype(np.float32), order.astype(np.int64)


class NearestNeighborWorkload(Workload):
    """NN: k-nearest-neighbour search over clustered geographic records."""

    name = "NN"
    description = "Nearest neighbors"
    input_description = "20 M records"
    error_metric = "MRE"
    approx_region_count = 2
    ops_per_byte = 1.6

    #: paper-scale record count
    FULL_RECORDS = 20_000_000
    #: number of neighbours reported by the Rodinia benchmark
    K = 10
    #: fixed query point (roughly the centre of the synthetic record clusters)
    QUERY = (37.5, -95.0)

    def generate(self) -> dict[str, Region]:
        records = self.scaled(self.FULL_RECORDS, minimum=4096)
        # GPS-style coordinates whose precision varies from source to source.
        locations = quantize_varying(spatial_points(self.rng, records), self.rng, 7, 15)
        # The Rodinia kernel writes per-record distances to a scratch buffer
        # which the host then scans; that buffer is the second approximable
        # region.  Its initial contents are zeros.
        scratch = np.zeros(records, dtype=np.float32)
        return {
            "records": Region("records", locations, approximable=True),
            "distance_scratch": Region("distance_scratch", scratch, approximable=True),
        }

    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        distances, indices = nearest_neighbors(arrays["records"], self.QUERY, self.K)
        return WorkloadOutput(
            arrays={"knn_distances": distances, "knn_indices": indices}
        )

    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        return mean_relative_error_percent(
            exact["knn_distances"], approx["knn_distances"]
        )
