//! Output digests pinned from the seed commit. Regenerate with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- pin` only
//! when a change is meant to alter simulated behaviour, and say why.

/// Pinned replications; a workload seed selects `seed % SEEDS`.
pub const SEEDS: usize = 16;

/// FNV-1a of the paper sweep's canonical journal bytes.
pub const PAPER_SWEEP_JOURNAL: u64 = 0x45f5de0d70cabd6e;

/// Report digests of the swarm-build runs `[EW-MAC 10k, ROPA 1k]`.
pub const SWARM: [[u64; 2]; SEEDS] = [
    [0xb68cef41bff632cc, 0x9c8f1c7585f28f0f],
    [0x6f4a56f6615228f8, 0x4c6a2ff8b037b554],
    [0xe48cf7279c57f0e2, 0x871ec718cc5d417a],
    [0x355019de6cdff153, 0xe1d270cc0856b892],
    [0xfea92ed144aa8b7e, 0xcaec15d9db0c2b40],
    [0xc16d4da274eb8ff3, 0x7015a40cd9a3e052],
    [0x724e3365b0f52fac, 0x55997504084c9fc3],
    [0xf059745dd2cd2a10, 0xc5de84262b1ce8bf],
    [0x16f5d002f0e0cb39, 0xc3c8f516a44cebe9],
    [0xbc85e1107fa2eb6a, 0x9a1cdcf8cac5a133],
    [0xdff66a88e6b58653, 0x0007b5aba9304d8b],
    [0x44a9816b0ff313f8, 0x3bfa0a8174088255],
    [0xbe2476b9d3e868d0, 0x5e97d8d2922b2537],
    [0xddb992b3e069295a, 0xce1219158b817b97],
    [0x606f778dd9430dee, 0xaa06531b11f0af4f],
    [0x960936e1e5fcbdd7, 0x33335f8345352d6c],
];

/// Report digest and monitor finding count of the route-audit run.
pub const ROUTE: [(u64, usize); SEEDS] = [
    (0x5a6e4c2fd0dcfbf4, 0),
    (0x7f16f92973a6e559, 0),
    (0x4faac5dec6e33376, 0),
    (0x2b534080faaa625c, 0),
    (0x7faa8fd96788cd90, 0),
    (0x8af58ef4e3b8adde, 0),
    (0x93b1c98a395af66e, 0),
    (0xfefe526e8f427281, 0),
    (0xe38b7408cfcac8d5, 0),
    (0x108ece9d517cf8fd, 0),
    (0x28a141a93dffde4e, 0),
    (0xe93a88177d94d51b, 0),
    (0x7ac49beaa9c8dd39, 0),
    (0x5dfb13ec6326a6a1, 0),
    (0x15124cb13e8ce1df, 0),
    (0xece2026017123c72, 0),
];
