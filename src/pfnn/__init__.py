"""pfnn: a desk-scale CNN toolkit built on a minimal float64 autodiff core.

Building blocks: dual-pooling fusion (average + max), a squeeze/excite
channel gate over the fused vector, a feature-smoothing auxiliary loss,
a deterministic Adam training loop with plateau/early-stop callbacks,
a synthetic imbalanced image generator, the full evaluation metric
battery, and Grad-CAM / PCA interpretability tools.
"""

from .autodiff import Tensor, ShapeError, backward

__all__ = ["Tensor", "ShapeError", "backward"]
__version__ = "0.1.0"
