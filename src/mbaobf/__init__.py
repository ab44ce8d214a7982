"""Mixed boolean-arithmetic obfuscation over e-graphs.

Parse an expression, grow an e-graph from it with semantics-preserving
rewrite rules, extract the most complex equivalent expression under
configurable termination conditions, and measure the result.  Equivalence
is guaranteed by rule soundness (checked exhaustively at small widths)
rather than by an SMT solver.

>>> from mbaobf import expand, parse, to_text, load_default_rules
>>> from mbaobf.expansion import ExpansionConfig
>>> report = expand(parse("x + y"), load_default_rules(),
...                 ExpansionConfig(node_limit=200))
>>> report.metrics_out.ast_size > report.metrics_in.ast_size
True
"""

from .egraph import CapacityExceededError, EGraph, ENode, InvalidIdError
from .expansion import (ExpansionConfig, ExpansionReport, Grown,
                        OutputTooLargeError, StopReason, UnextractableError,
                        expand, extract_max, extract_min, grow)
from .expr import (Const, Expression, Op, Operator, ParseError,
                   UnboundVariableError, Var, evaluate, expr_size, free_vars,
                   parse, to_text)
from .metrics import AggregateReport, EmptyCorpusError, MetricsReport, \
    aggregate, aggregate_csv, measure
from .rules import (PatVar, Rule, RuleSyntaxError, UnboundRhsVarError,
                    apply_match, default_rules_text, ematch,
                    load_default_rules, parse_rules)
from .verify import (CheckResult, TooManyCasesError, check_equivalence,
                     check_rule, check_rule_random, check_rules)

__version__ = "0.1.0"

__all__ = [
    "AggregateReport", "CapacityExceededError", "CheckResult", "Const",
    "EGraph", "ENode", "EmptyCorpusError",
    "ExpansionConfig", "ExpansionReport", "Expression", "Grown",
    "InvalidIdError", "MetricsReport", "Op", "Operator",
    "OutputTooLargeError", "ParseError", "PatVar", "Rule", "RuleSyntaxError",
    "StopReason", "TooManyCasesError", "UnboundRhsVarError",
    "UnboundVariableError", "UnextractableError", "Var", "aggregate",
    "aggregate_csv", "apply_match", "check_equivalence",
    "check_rule", "check_rule_random", "check_rules", "default_rules_text",
    "ematch", "evaluate", "expand", "expr_size", "extract_max", "extract_min",
    "free_vars", "grow", "load_default_rules", "measure", "parse",
    "parse_rules", "to_text",
]
