"""evofusion: multi-task bi-objective evolutionary search for
feature-fusion strategies over per-task candidate feature pools.

The package namespace holds the names the quickstart and the demos use;
everything else is imported from its module."""

from .data import SynthConfig, generate_synthetic, load_all_tasks
from .driver import predict, run_evolution
from .fusion import fuse_genotype
from .metrics import auprc, confusion, fpr, mcc, supplementary_metrics
from .model import FusionGene, Genotype, map_pool_index, random_genotype, vectorize_genotype
from .operators import EvoConfig
from .proxy import ProxyConfig

__version__ = "0.1.0"
