"""FM-CW radar vehicle classification pipeline."""

from .radar import (
    CLASS_ORDER,
    BeatSignal,
    ClassProfile,
    NyquistError,
    PointTarget,
    ProfileTable,
    RadarParams,
    RampPolarity,
    Scenario,
    VehicleClass,
    beat_frequencies,
    invert_beat,
    sample_vehicle_scenario,
    synthesize_beat_signal,
    synthesize_point_targets,
)
from .spectrogram import (
    PadOverflowError,
    RdTensor,
    build_spectrograms,
    build_tensor,
    compute_mean_tensor,
    export_pgm,
    fft_modulus,
    mean_normalize,
    signal_to_tensor,
)
from .dataset import (
    BadMagicError,
    Dataset,
    DimensionOverflowError,
    FoldSplit,
    ManifestError,
    TensorFormatError,
    TruncatedFileError,
    balanced_batches,
    generate_dataset,
    load_dataset,
    load_signal,
    load_tensor,
    save_signal,
    save_tensor,
    stratified_fold_split,
)
from .network import (
    ConfigError,
    Network,
    StaleCacheError,
    TrainConfig,
    WeightShapeError,
    WeightsFormatError,
    build_network,
    gradient_check,
    load_weights,
    loss_and_grad,
    predict,
    save_weights,
    sgd_step,
)
from .evaluation import (
    ConfusionMatrix,
    CvReport,
    confusion_matrix,
    cross_validate,
    evaluate,
    train_fold,
)

__version__ = "0.1.0"
