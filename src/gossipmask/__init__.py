"""Decentralized personalized learning of binary pruning masks.

Agents in a connected communication graph share one fixed, randomly
initialized network and each learns a personalized binary pruning mask for
it, collaborating by gossiping nothing but 1-bit masks. The package
provides the dense-tensor math and reverse-mode gradients, mask extraction
with structured sparsity, graph topologies, label-skew data partitioning,
the bit-exact mask wire format with communication accounting, the training
algorithms with their baselines, and verification harnesses.
"""

from .data import (Dataset, DataFormatError, PartitionPlan, assign_labels,
                   check_synth, load_cifar10, partition, synth_generate)
from .errors import FieldError
from .masking import (check_min_nonzero, extract, filter_zero,
                      group_lasso_grad, group_lasso_value, retained_count,
                      threshold_layer)
from .nn import (LayerSpec, ModelArch, conv2d, desk_arch, finite_diff_check,
                 flatten, forward, grad_z, init_params, linear,
                 loss_and_grad_v, maxpool2d, relu, shape_chain)
from .protocol import (CommLedger, MaskFrame, ProtocolError, SimulationError,
                       account_real_bits, decode_mask, encode_mask, exchange)
from .seeds import seed_key, substream
from .topology import (Graph, GraphGenerationError, erdos_renyi,
                       from_edge_list, is_connected, ring, to_edge_list)
from .trainer import (ALGORITHMS, AgentState, BoundReport, HyperConfig,
                      MaskVsWeightTraces, MetricsLog, MetricsRow,
                      aggregate_step, backprop_half_step, bound_check,
                      build_states, check_harness, fine_tune_step,
                      gossip_mask_round, make_masked_net,
                      mask_vs_weight_verify, random_bound_instance, run,
                      sample_batch)

__version__ = "0.1.0"
