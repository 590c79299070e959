"""Desk-scale federated LoRA fine-tuning simulator for binary text
classification, built on a minimal reverse-mode autodiff engine."""

import os

# One BLAS thread per process, set before any submodule imports NumPy: the
# helper processes are the parallelism. A value the caller set wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .autodiff import Graph, Tensor, grad_check
from .data import ClientShard, PartitionSpec, Record, load_corpus, partition_clients, split_train_eval, synth_corpus
from .federation import FedConfig, GlobalState, RoundReport, comm_cost, fedavg, run_centralized, run_federated
from .lora import AdaptedModel, LoraConfig, attach_adapters, extract_trainable, load_trainable, merge_adapters, trainable_param_count
from .metrics import ConfusionMatrix, accuracy, confusion, f1_binary
from .model import EncoderModel, ModelConfig, Vocab, build_vocab, forward, init_model, tokenize

__version__ = "0.1.0"
