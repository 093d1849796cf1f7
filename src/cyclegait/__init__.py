"""cyclegait: cyclic two-network noise-tolerant training on synthetic
sequence-set benchmarks, with corruption generators, a retrieval evaluation
kit and a closed-form check of the EMA parameter recurrence."""

__version__ = "0.1.0"
