"""`repro.metrics` — reconstruction quality and transmission cost metrics."""

from .cost import CostBreakdown, bytes_to_kb, savings_factor
from .quality import batch_psnr, mse, nmse, psnr, ssim

__all__ = [
    "CostBreakdown", "bytes_to_kb", "savings_factor",
    "batch_psnr", "mse", "nmse", "psnr", "ssim",
]
