"""Collaborative filtering backbones evaluated in the paper's Tables III/IV."""

from .base import BaseRecommender, GraphRecommender, Tables
from .mf import BPRMF
from .gccf import GCCF
from .lightgcn import LightGCN
from .sgl import SGL
from .simgcl import SimGCL
from .dccf import DCCF
from .autocf import AutoCF

BACKBONES = {
    "bpr-mf": BPRMF,
    "gccf": GCCF,
    "lightgcn": LightGCN,
    "sgl": SGL,
    "simgcl": SimGCL,
    "dccf": DCCF,
    "autocf": AutoCF,
}


def create_backbone(name: str, dataset, **kwargs) -> BaseRecommender:
    """Instantiate a backbone by name (see :data:`BACKBONES` for valid names)."""
    key = name.lower()
    if key not in BACKBONES:
        raise KeyError(f"unknown backbone '{name}'; choose from {sorted(BACKBONES)}")
    return BACKBONES[key](dataset, **kwargs)


__all__ = [
    "BaseRecommender",
    "GraphRecommender",
    "Tables",
    "BPRMF",
    "GCCF",
    "LightGCN",
    "SGL",
    "SimGCL",
    "DCCF",
    "AutoCF",
    "BACKBONES",
    "create_backbone",
]
