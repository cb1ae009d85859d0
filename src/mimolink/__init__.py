"""Monte Carlo link-level simulator for a single-user MIMO wireless link.

Gray-coded QAM over a Rayleigh block-fading channel with CRC framing,
pilot-based LS / L-MMSE channel estimation, ZF / L-MMSE equalization, and
three interchangeable symbol detectors: maximum likelihood, fixed-centroid
K-means, and a from-scratch fully connected neural network.
"""

from .channel import (
    apply_channel,
    large_scale_gain,
    sample_channel,
    sample_noise,
)
from .config import ConfigError, SimConfig, load_config
from .constellation import (
    ConstellationTable,
    build_constellation,
    map_bits_to_symbols,
    symbols_to_bits,
)
from .estimation import (
    build_pilot_matrix,
    estimate_lmmse,
    estimate_ls,
)
from .framing import (
    CrcSpec,
    FramingError,
    build_transport_blocks,
    crc_compute,
    crc_verify,
    extract_and_check,
    load_payload_bits,
)
from .metrics import bler, error_vector, estimation_mse, tx_ebn0_db, tx_snr_db
from .neural import (
    Hyperparameters,
    Network,
    NetworkSpec,
    TrainingDivergedError,
    forward,
    gradient,
    init_network,
    load_network,
    predict,
    save_network,
    train,
)
from .receiver import (
    detect_kmeans,
    detect_ml,
    equalize_lmmse,
    equalize_zf,
)
from .simulate import (
    SweepRecord,
    TrialOutcome,
    run_sweep,
    run_trial,
    substream,
    train_detector_network,
    write_csv,
)

__version__ = "0.1.0"
