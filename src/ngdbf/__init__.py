"""Decoding lab for gradient-descent bit-flip LDPC decoders."""

from .analysis import (FlipMatrix, LmlParams, bin_probability, convergence_error,
                       f_max, gdbf_flip_matrix, lml_flip_matrix, pc_from_pe,
                       pe_initial, syndrome_sum_likelihoods)
from .channel import QuantizerSpec, ebn0_to_sigma, saturate, sigma_to_ebn0, transmit
from .codes import AlistError, ParityCheckCode, load_alist, parse_alist, serialize_alist
from .core import DecodeResult, objective
from .gdbf import decode, step, thresholds_by_count
from .harness import (CampaignConfig, CampaignResult, ConfigError, DecoderSetup,
                      decode_chunk, load_config, run_campaign, run_convergence,
                      run_sweep, wilson_interval)
from .minsum import decode_minsum
from .noisy import NgdbfParams, NoiseSource, adaptation_events, shift_chain

__version__ = "0.1.0"
