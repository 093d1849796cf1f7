"""cyclegait: cyclic two-network noise-tolerant training on synthetic
sequence-set benchmarks, with corruption generators, a retrieval evaluation
kit and a closed-form check of the EMA parameter recurrence."""

from .numkit import RngStream
from .setnet import (
    EncoderShape,
    GradVector,
    ModelParams,
    backward_batch,
    ema_transfer,
    forward_batch,
    init_params,
    load_checkpoint,
    optimizer_step,
    save_checkpoint,
)
from .lossbank import (
    BatchStructureError,
    CoeffSchedule,
    LossBreakdown,
    Ramp,
    crc_combine,
    triplet_loss,
)
from .sieve import NoiseScores, SieveState, adapt_mask, score_arrays
from .gaitgen import (
    AugmentationSpec,
    DatasetBundle,
    SequenceSample,
    corrupt_bundle,
    inject_augmentation_noise,
    inject_identity_split,
    inject_random_label_noise,
    load_bundle,
    make_benchmark,
    make_clean_dataset,
    regenerate_from_manifest,
    save_bundle,
)
from .cyclic import (
    NonFiniteLossError,
    StepInputs,
    TrainerConfig,
    TrainingResult,
    pxk_sampler,
    run_training,
    train_iteration,
)
from .gaugekit import (
    EvalReport,
    MemCurve,
    VarianceStats,
    cost_model,
    evaluate_checkpoint,
    memorization_curve,
    rank1,
    variance_stats,
    verify_ema_closed_form,
    verify_trace_file,
)

__version__ = "0.1.0"
