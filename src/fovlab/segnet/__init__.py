"""Compact UNet for binary FOV segmentation, implemented on plain numpy.

Everything here is hand-rolled (convolution, pooling, upsampling, dropout,
backprop, Adam) so gradients can be audited against finite differences.
Commands use `unet_init`, `load_checkpoint`, `train`, `infer_mle` and
`infer_mcd`; `grad_check` is the tests' backprop oracle.
"""

from .network import NetConfig, Network, unet_init, parameter_count
from .network import save_checkpoint, load_checkpoint
from .training import TrainConfig, train, grad_check
from .inference import infer_mle, infer_mcd, binarize

__all__ = [
    "NetConfig", "Network", "unet_init", "parameter_count",
    "save_checkpoint", "load_checkpoint",
    "TrainConfig", "train", "grad_check",
    "infer_mle", "infer_mcd", "binarize",
]
