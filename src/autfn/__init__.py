"""autfn: exact free-group word arithmetic, automorphisms and their graph
realizations, abelianized integer matrices, finite congruence-quotient
computations, and a scenario DSL that replays identities end to end."""

from .words import Word, RankMismatchError, cyclic_reduce, format_word, invert, multiply, parse_word, reduce
from .endos import (
    Endomorphism,
    NotABasisError,
    change_basis,
    compose,
    equal_up_to_inner,
    invert_automorphism,
    is_basis,
    is_inner,
    named,
    nielsen_reduce,
    order,
    out_order,
)
from .matrices import (
    IntMatrix,
    abelianize,
    congruence_level_member,
    det,
    elementary,
    is_torelli,
    mod_reduce,
)
from .graphs import (
    EdgePath,
    EdgeStep,
    Graph,
    GraphAut,
    Pi1Presentation,
    closed_chain,
    collapse_forest,
    hairy,
    induced_endo,
    induced_out_rep,
    open_chain,
    pair_swap_aut,
    presentation,
    ring,
    rose,
    rotation_aut,
)
from .scenario import ParseError, Scenario, parse_scenario
from .runner import ReplayReport, lint_scenarios, replay_all, run_scenario, run_text

__version__ = "0.1.0"
