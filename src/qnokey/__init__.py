"""Exact state-vector laboratory for quantum no-key private communication.

The package simulates a family of XOR-oracle protocols in which two
parties exchange a message through repeated scrambling with private
bijections, without any pre-shared key, and certifies numerically what
an eavesdropper's channel snapshots do and do not reveal.
"""

from .adversary import (AttackSpecError, MeasureResendAttack, MimMarker,
                        PassiveAttack, PhaseAttack, echo_detection_experiment,
                        impersonate_echo_stage, mim_full_impersonation,
                        parse_attack, passive_snapshot)
from .auth import (REDUCTION_POLYS, MacKey, forgery_fraction, gf_add, gf_mul,
                   gf_pow, mac_keygen, mac_tag, mac_verify, message_blocks)
from .harness import (REPORT_FORMAT_VERSION, ConfigError, ExperimentConfig,
                      ExperimentReport, binomial_ci, decode_matrix,
                      encode_matrix, run_experiment, shipped_experiments,
                      verify_report)
from .oracles import (DEFAULT_ENUM_LIMIT, BooleanFunction, BooleanPermutation,
                      EnumerationLimitError, count_functions,
                      enumerate_functions, enumerate_pads, load_table,
                      make_rng, party_streams, read_table, sample_function,
                      sample_pad, sample_permutation, save_table)
from .protocols import (PROTOCOL_IDS, ROUND_COUNTS, EveView, ProtocolError,
                        SharedKeys, Transcript, check_session,
                        eve_average_view, noninteractive_view,
                        peak_live_width, run_noninteractive, run_protocol1,
                        run_protocol2, run_protocol3, run_protocol4,
                        run_protocol5, run_protocol6, run_session,
                        run_two_round, sample_draws, sample_shared_keys)
from .qstate import (ATOL_DENSITY, ATOL_SCALAR, ATOL_STATE, DEFAULT_QUBIT_CAP,
                     CompositeState, EntangledRegisterError, Register,
                     RegisterError, as_matrix, hermitian_eigenvalues,
                     init_basis_state, is_maximally_mixed, trace_distance)

__all__ = [
    "ATOL_DENSITY", "ATOL_SCALAR", "ATOL_STATE", "DEFAULT_ENUM_LIMIT",
    "DEFAULT_QUBIT_CAP", "PROTOCOL_IDS", "REDUCTION_POLYS",
    "REPORT_FORMAT_VERSION", "ROUND_COUNTS",
    "AttackSpecError", "BooleanFunction", "BooleanPermutation",
    "CompositeState", "ConfigError", "EntangledRegisterError",
    "EnumerationLimitError", "EveView", "ExperimentConfig",
    "ExperimentReport", "MacKey", "MeasureResendAttack", "MimMarker",
    "PassiveAttack", "PhaseAttack", "ProtocolError",
    "Register", "RegisterError", "SharedKeys", "Transcript",
    "as_matrix", "binomial_ci", "check_session", "count_functions", "decode_matrix",
    "echo_detection_experiment", "encode_matrix", "enumerate_functions",
    "enumerate_pads", "eve_average_view", "forgery_fraction", "gf_add",
    "gf_mul", "gf_pow", "hermitian_eigenvalues", "impersonate_echo_stage",
    "init_basis_state", "is_maximally_mixed", "load_table", "mac_keygen",
    "mac_tag", "mac_verify", "make_rng", "message_blocks",
    "mim_full_impersonation", "noninteractive_view", "parse_attack",
    "party_streams", "passive_snapshot", "peak_live_width", "read_table",
    "run_experiment", "run_noninteractive", "run_protocol1", "run_protocol2",
    "run_protocol3", "run_protocol4", "run_protocol5", "run_protocol6",
    "run_session", "run_two_round", "sample_draws", "sample_function", "sample_pad",
    "sample_permutation", "sample_shared_keys", "save_table",
    "shipped_experiments", "trace_distance", "verify_report",
]
