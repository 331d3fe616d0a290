"""Fixed workload parameters.

These are constants of the benchmark, never derived per run: a later
change to the program is measured against the same offered load.  Only
``--seed`` (inputs) and ``--seconds`` (run length) vary.
"""

# -- serve-mix ---------------------------------------------------------------
SERVE_NODES = 4
#: Share of ``--seconds`` spent in the open-loop phase; the saturation
#: phase then replays the same stream as fast as the window allows.
SERVE_OPEN_LOOP_SHARE = 0.75
#: Open-loop arrivals: every window re-samples a Poisson active-user
#: count around this mean, each user offering ``SERVE_USER_RATE`` req/s.
SERVE_MEAN_USERS = 30
SERVE_USER_RATE = 3.0
SERVE_WINDOW_S = 0.25
#: Arrival mix: deploy (each followed by a complete of the deploy made
#: ``SERVE_RESIDENCY`` deploys earlier), query of a live id, health.
SERVE_P_DEPLOY = 0.5
SERVE_P_HEALTH = 0.03
SERVE_RESIDENCY = 40
#: Simulated time advances only through these ticks (1 sim s each).
SERVE_TICK_PERIOD_S = 0.05
#: Outstanding-request window of the saturation phase, and how many
#: saturated passes (each on a fresh daemon) the best is taken over.
#: ``setup_s`` is the median spawn-to-listening time of all the daemons.
SERVE_SAT_WINDOW = 8
SERVE_SAT_PASSES = 5
#: A run whose generator sent later than this (p99) is invalid.
SERVE_GEN_LATE_LIMIT_MS = 25.0
#: Seconds to wait for any single response before calling it lost.
SERVE_RESPONSE_TIMEOUT_S = 30.0
#: BE and LC apps only: interference trashers never finish on their own.
SERVE_APPS = (
    "nweight", "lr", "sort", "terasort", "wordcount", "repartition", "scan",
    "join", "aggregation", "pagerank", "kmeans", "als", "gbt", "rf", "lda",
    "gmm", "pca", "redis", "memcached",
)

# -- replay-adrias -------------------------------------------------------------
#: Simulated seconds replayed per second of ``--seconds`` (30 s -> 3 h).
REPLAY_SIM_PER_RUN_S = 360.0
REPLAY_SPAWN_INTERVAL = (5.0, 20.0)
REPLAY_HIDDEN = 32
#: Warm-up scenario the scalers are calibrated on (idle to congested).
REPLAY_WARMUP_S = 900.0
REPLAY_SETUPS = 5

# -- rack-observed -------------------------------------------------------------
RACK_NODES = 16
#: Rack fabric bandwidth as a share of the summed per-node links.
RACK_FABRIC_OVERSUB = 0.6
RACK_SIM_PER_RUN_S = 40.0
RACK_SPAWN_INTERVAL = (5.0, 20.0)
RACK_SETUPS = 25

#: Salt separating warm-up inputs from measured inputs of one seed.
WARMUP_SALT = 1_000_003
