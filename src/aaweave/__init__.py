"""Adaptation-aspect weaving for component assemblies.

Parse aspects written in a small pointcut/advice DSL, match them against a
component assembly, merge conflicting advice rules with a symmetric
operator algebra and emit elementary reconfiguration instructions, in one
weaving cycle or in cascades of cycles.
"""
from .analysis import (
    CascadeShape,
    CostModelParams,
    DegenerateFit,
    combination_count_mono,
    combination_count_multi,
    count_cascade_configurations,
    count_mono_configurations,
    derive_shape,
    evaluate_cost_model,
    fit_cost_model,
    fit_cost_model_from_rows,
    merge_upper_bound_mono,
    merge_upper_bound_multi,
    mono_collapse_count,
    nb_rules,
    nb_rules_per_cycle,
)
from .language import (
    AaSyntaxError,
    AspectOfAssembly,
    MetadataFilter,
    NegationRejected,
    Pattern,
    PointcutRule,
    UnboundVariable,
    parse_aa,
    parse_operator_expr,
    parse_pattern,
    print_aa,
    print_operator_expr,
)
from .matching import (
    AdviceInstance,
    Combination,
    FreshNames,
    collect_joinpoints,
    combinations,
    instantiate_advice,
    match_pointcut,
)
from .merge import (
    CallWithoutOriginal,
    DelegateClash,
    MergedPlan,
    RewriteGroup,
    detect_conflicts,
    lower,
    merge_group,
    normalize,
)
from .model import (
    Assembly,
    Binding,
    Component,
    Instruction,
    PortRef,
    PortSpec,
    Woven,
    apply_instructions,
    assembly_from_json,
    assembly_to_json,
    canonical_equal,
    diff,
)
from .sim import (
    EnvEvent,
    ScriptError,
    Trace,
    WorkloadSpec,
    continuum_workload,
    generate_workload,
    run_bench,
    run_scenario,
)
from .weaver import Cascade, NameCollision, WeaveReport, reweave, union, weave_cascade, weave_cycle

__version__ = "0.1.0"
