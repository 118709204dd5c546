"""SRAD1 / SRAD2 — speckle-reducing anisotropic diffusion (Rodinia srad).

SRAD denoises ultrasound-style images in two kernels per iteration:

* **SRAD1** computes the four directional derivatives and the diffusion
  coefficient of every pixel;
* **SRAD2** computes the divergence of the coefficient-weighted derivatives
  and updates the image.

The paper treats the two kernels as separate benchmarks with 8 and 6
approximable regions respectively; both use the image-difference metric.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.error import image_diff_percent
from repro.workloads.base import Region, Workload, WorkloadOutput
from repro.workloads.datagen import quantize_varying, smooth_image


def _neighbors(image: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """North/south/west/east differences with clamped (replicated) borders."""
    north = np.roll(image, 1, axis=0)
    north[0, :] = image[0, :]
    south = np.roll(image, -1, axis=0)
    south[-1, :] = image[-1, :]
    west = np.roll(image, 1, axis=1)
    west[:, 0] = image[:, 0]
    east = np.roll(image, -1, axis=1)
    east[:, -1] = image[:, -1]
    return north - image, south - image, west - image, east - image


#: pixels per row band of :func:`srad_coefficients`, which bounds its
#: float64 temporaries (about 15 band-sized arrays); an image of up to this
#: many pixels is one band
BAND_PIXELS = 1 << 16


def srad_coefficients(
    image: np.ndarray, q0_squared: float = 0.05
) -> dict[str, np.ndarray]:
    """SRAD kernel 1: directional derivatives and diffusion coefficient.

    Computed in bands of whole rows (:data:`BAND_PIXELS` pixels) with a
    one-row halo above and below, so the float64 temporaries are those of
    one band; every pixel goes through the same operations, in the same
    order, as over the whole image at once.
    """
    image = np.asarray(image)
    height = image.shape[0]
    band = max(1, BAND_PIXELS // max(1, image[:1].size))
    results = {
        name: np.empty(image.shape, dtype=np.float32)
        for name in ("coefficient", "d_n", "d_s", "d_w", "d_e")
    }
    for top in range(0, height, band):
        bottom = min(height, top + band)
        above = max(0, top - 1)
        part = np.maximum(
            np.asarray(image[above:min(height, bottom + 1)], dtype=np.float64), 1e-6
        )
        # The halo rows' own derivatives are dropped.
        keep = slice(top - above, bottom - above)
        d_n, d_s, d_w, d_e = (d[keep] for d in _neighbors(part))
        part = part[keep]
        gradient_sq = (d_n**2 + d_s**2 + d_w**2 + d_e**2) / (part**2)
        laplacian = (d_n + d_s + d_w + d_e) / part
        num = 0.5 * gradient_sq - (1.0 / 16.0) * laplacian**2
        den = (1.0 + 0.25 * laplacian) ** 2
        q_squared = num / np.maximum(den, 1e-9)
        coefficient = 1.0 / (
            1.0 + (q_squared - q0_squared) / (q0_squared * (1.0 + q0_squared))
        )
        rows = slice(top, bottom)
        results["coefficient"][rows] = np.clip(coefficient, 0.0, 1.0)
        results["d_n"][rows] = d_n
        results["d_s"][rows] = d_s
        results["d_w"][rows] = d_w
        results["d_e"][rows] = d_e
    return results


def srad_update(
    image: np.ndarray,
    coefficient: np.ndarray,
    d_n: np.ndarray,
    d_s: np.ndarray,
    d_w: np.ndarray,
    d_e: np.ndarray,
    step: float = 0.1,
) -> np.ndarray:
    """SRAD kernel 2: divergence of the weighted derivatives + image update."""
    coefficient = np.asarray(coefficient, dtype=np.float64)
    c_south = np.roll(coefficient, -1, axis=0)
    c_south[-1, :] = coefficient[-1, :]
    c_east = np.roll(coefficient, -1, axis=1)
    c_east[:, -1] = coefficient[:, -1]
    divergence = (
        coefficient * np.asarray(d_n, dtype=np.float64)
        + c_south * np.asarray(d_s, dtype=np.float64)
        + coefficient * np.asarray(d_w, dtype=np.float64)
        + c_east * np.asarray(d_e, dtype=np.float64)
    )
    updated = np.asarray(image, dtype=np.float64) + 0.25 * step * divergence
    return updated.astype(np.float32)


class SRAD1Workload(Workload):
    """SRAD1: derivative and diffusion-coefficient kernel."""

    name = "SRAD1"
    description = "Anisotropic diff."
    input_description = "1024×1024 img."
    error_metric = "Image diff."
    approx_region_count = 8
    ops_per_byte = 2.6

    FULL_DIM = 1024

    def generate(self) -> dict[str, Region]:
        dim = self.scaled_dim(self.FULL_DIM, minimum=64)
        # An ultrasound image with spatially varying detail promoted to float32.
        image = quantize_varying(
            smooth_image(self.rng, dim, dim, amplitude=80.0, offset=120.0, noise=3.0),
            self.rng, 2, 10,
        )
        # The Rodinia kernel reads the image (twice: once for the gradients,
        # once for the normalization statistics) and the boundary index
        # arrays; the coefficient and derivative arrays it writes become the
        # output regions.  Together these are the paper's 8 approximable
        # regions.
        regions = {"image": Region("image", image, approximable=True, read_passes=2)}
        index_n = np.arange(dim, dtype=np.int32)
        index_s = np.arange(dim, dtype=np.int32)
        regions["index_n"] = Region("index_n", index_n, approximable=True)
        regions["index_s"] = Region("index_s", index_s, approximable=True)
        return regions

    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        results = srad_coefficients(arrays["image"])
        return WorkloadOutput(arrays={name: value for name, value in results.items()})

    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        return image_diff_percent(exact["coefficient"], approx["coefficient"])


class SRAD2Workload(Workload):
    """SRAD2: divergence and image-update kernel."""

    name = "SRAD2"
    description = "Anisotropic diff."
    input_description = "1024×1024 img."
    error_metric = "Image diff."
    approx_region_count = 6
    ops_per_byte = 2.2

    FULL_DIM = 1024

    def generate(self) -> dict[str, Region]:
        dim = self.scaled_dim(self.FULL_DIM, minimum=64)
        image = quantize_varying(
            smooth_image(self.rng, dim, dim, amplitude=80.0, offset=120.0, noise=3.0),
            self.rng, 0, 7,
        )
        first_kernel = srad_coefficients(image.astype(np.float64))
        # The coefficient and derivative fields carry limited precision too.
        first_kernel = {
            name: quantize_varying(value, self.rng, 10, 18)
            for name, value in first_kernel.items()
        }
        return {
            "image": Region("image", image, approximable=True),
            "coefficient": Region(
                "coefficient", first_kernel["coefficient"], approximable=True, read_passes=2
            ),
            "d_n": Region("d_n", first_kernel["d_n"], approximable=True),
            "d_s": Region("d_s", first_kernel["d_s"], approximable=True),
            "d_w": Region("d_w", first_kernel["d_w"], approximable=True),
            "d_e": Region("d_e", first_kernel["d_e"], approximable=True),
        }

    def run(self, arrays: dict[str, np.ndarray]) -> WorkloadOutput:
        updated = srad_update(
            arrays["image"],
            arrays["coefficient"],
            arrays["d_n"],
            arrays["d_s"],
            arrays["d_w"],
            arrays["d_e"],
        )
        return WorkloadOutput(arrays={"updated_image": updated})

    def error(self, exact: WorkloadOutput, approx: WorkloadOutput) -> float:
        return image_diff_percent(exact["updated_image"], approx["updated_image"])
