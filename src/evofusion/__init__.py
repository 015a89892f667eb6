"""evofusion: multi-task bi-objective evolutionary search for
feature-fusion strategies over per-task candidate feature pools."""

from .data import (
    FormatError,
    PoolManifest,
    SynthConfig,
    TaskData,
    generate_synthetic,
    load_all_tasks,
    load_strategy,
    load_task,
    read_fmat,
    read_manifest,
    save_strategy,
    write_fmat,
)
from .driver import (
    RunResult,
    TaskResult,
    evaluate_naive_mean,
    predict,
    run_evolution,
    run_naive_mean,
    select_strategy,
)
from .fusion import FusionOverflowError, Standardizer, fit_standardizer, fuse_genotype, fuse_step
from .metrics import ConfusionCounts, auprc, confusion, fpr, mcc, supplementary_metrics
from .model import (
    OPERATORS,
    FusionGene,
    Genotype,
    Individual,
    ObjectiveVector,
    TaskDescriptor,
    TaskPopulation,
    map_pool_index,
    random_genotype,
    vectorize_genotype,
)
from .neighborhood import NeighborEntry, build_neighborhoods, grg, select_elites
from .nsga3 import ReferenceSet, das_dennis, dominates, environmental_selection, nondominated_sort, normalize
from .operators import (
    EvoConfig,
    batch_de,
    crossover,
    generate_offspring,
    mutate_operator,
    mutate_structural,
    mutate_weight,
    tournament,
)
from .proxy import (
    DegenerateTaskError,
    ProxyConfig,
    ProxyModel,
    evaluate_individual,
    focal_loss,
    train_head,
)

__version__ = "0.1.0"
