"""Quasi-Gray counters: cyclic word enumerators with few reads and writes.

The package builds counters over mixed-radix word domains whose step
functions touch only a handful of cells, verifies them exhaustively, and
decomposes the permutations behind them into primitive pieces.
"""

from .core import (Assign, BoundExceeded, Counter, Domain, OrbitReport, Query,
                   StepStats, Tape, dat_count_nodes, dat_eval, dat_from_json,
                   dat_read_complexity, dat_to_json, dat_validate,
                   dat_write_complexity, materialize, measure_counter,
                   word_format, word_parse)
from .graycode import (gray_counter, gray_next, gray_prev, gray_rank,
                       gray_unrank)
from .linear import (AddRow, Field, Poly, Scale, companion_counter,
                     companion_matrix, decompose_elementary, find_primitive,
                     is_primitive, linear_counter, prime_factors)
from .permdecomp import (DecompositionPlan, RFunction, build_plan,
                         decompose_boundary, decompose_indicator, make_alpha,
                         min_width, odd_counter, plan_size, rfunction_to_dat)
from .compose import (StepList, crt_compose, cycle_compose, general_counter,
                      multiplicative_order, stitch_radix)
from .verify import (AuditReport, DensePermutation, audit,
                     cycle_isolation_check, cycle_lengths, densify, perm_equal,
                     search_hierarchical)

__version__ = "0.1.0"
