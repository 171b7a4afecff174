//! Output digests pinned per workload and seed.
//!
//! Each entry is `(workload, seed, digest, count)`:
//!
//! * `grid` — `grid_digest` of the 12 cells and their total events;
//! * `n256` — FNV fold of the run fingerprints and their total events;
//! * `search` — FNV-1a of the canonical witness report and the campaign's
//!   run count.
//!
//! Seeds 0–31 were used while writing the benchmark. Seed
//! [`HELD_OUT_SEED`] was not: recheck a claimed gain on it, and do not
//! tune on it.

use crate::Workload;

/// The seed kept out of tuning.
pub const HELD_OUT_SEED: u64 = 90_001;

const PINS: &[(&str, u64, u64, u64)] = &[
    ("grid", 0, 0xa8fd1ffa22d2bbdd, 14963962),
    ("grid", 1, 0x0577d548a532a845, 14947041),
    ("grid", 2, 0xd7c69272eff9602c, 14964814),
    ("grid", 3, 0x0ee85be5a74420a7, 14936812),
    ("grid", 4, 0x2f010db4578d2696, 14987887),
    ("grid", 5, 0xf1923606cc0c54cd, 14940761),
    ("grid", 6, 0x02963d5d80bffcf8, 14959603),
    ("grid", 7, 0xf6facc2bcc139ccd, 14898824),
    ("grid", 8, 0xf30f36a411cea2c2, 14953629),
    ("grid", 9, 0xfe9f698420a1338a, 14970268),
    ("grid", 10, 0xd93859314ca18c82, 14948478),
    ("grid", 11, 0x73176fd94c9fbc6f, 14982814),
    ("grid", 12, 0x4904cb1aa8f75d9e, 14925773),
    ("grid", 13, 0x4d0b7254f2770562, 15032845),
    ("grid", 14, 0xac9ff0e5c2fb9ea2, 14883392),
    ("grid", 15, 0x29d6c2736e6c2778, 14879592),
    ("grid", 16, 0x0da6671be2e1ae55, 14901673),
    ("grid", 17, 0x9ca9c62c2c69ebf7, 14953964),
    ("grid", 18, 0xc15d722a47d250fe, 14902002),
    ("grid", 19, 0x4feb0c0c5f9bf2ea, 14936542),
    ("grid", 20, 0x423db723b02dbc15, 14833063),
    ("grid", 21, 0x157d77b330c42551, 14934776),
    ("grid", 22, 0x63cf59311507fb47, 14883266),
    ("grid", 23, 0x9ce57ba527a5fcf9, 14905844),
    ("grid", 24, 0xe7d2cb5109dcfab1, 14917692),
    ("grid", 25, 0x474964cea2d68cb1, 14868396),
    ("grid", 26, 0x8dd79ac798a898e0, 14871633),
    ("grid", 27, 0x361323a8793561ee, 14947279),
    ("grid", 28, 0xb2c19bd9c8295433, 14976036),
    ("grid", 29, 0xa6f6069c60875343, 14868699),
    ("grid", 30, 0x90d9bc0beb041302, 14937117),
    ("grid", 31, 0x6bc1aa93fb2e4ad0, 14868746),
    ("grid", 90001, 0x2484fb51425e8c09, 14890191),
    ("n256", 0, 0xbe9dda2e1ade01bb, 5589776),
    ("n256", 1, 0x989449fd91e8800a, 5583815),
    ("n256", 2, 0xe280623f17fcda23, 5585013),
    ("n256", 3, 0xb4528c4efe84fb46, 5451787),
    ("n256", 4, 0x8d426fc53f4e4a45, 5451344),
    ("n256", 5, 0xd55ca119fe1ae17f, 5589116),
    ("n256", 6, 0xc3dbc60b3e8c0fff, 5587112),
    ("n256", 7, 0xd793db8f54817820, 5581641),
    ("n256", 8, 0x9b1fdad57f3cb302, 5446666),
    ("n256", 9, 0x59663c1dca9a9ce0, 5447772),
    ("n256", 10, 0x78211b3cc90a31e3, 5720419),
    ("n256", 11, 0x3414160a6d0c7b20, 5451887),
    ("n256", 12, 0xc726ad67124c0db7, 5451371),
    ("n256", 13, 0xdfd76e14230e59a5, 5447761),
    ("n256", 14, 0x4c34d4a3ca857cba, 5586076),
    ("n256", 15, 0xb1288a2c7275354a, 5587214),
    ("n256", 16, 0xa3400f873a69faff, 5317181),
    ("n256", 17, 0x5c638550cabd060d, 5447607),
    ("n256", 18, 0x90555ff56607d7ae, 5449099),
    ("n256", 19, 0xf903ce822f238904, 5585099),
    ("n256", 20, 0x6e18f8d253821fd9, 5579214),
    ("n256", 21, 0xda07112c63a1dd08, 5717945),
    ("n256", 22, 0x7ddca379c04d61e6, 5728281),
    ("n256", 23, 0x7051a054cdb3f5b8, 5717386),
    ("n256", 24, 0x7e563061166a557e, 5589923),
    ("n256", 25, 0x6b0dd5ffdaae4c81, 5582528),
    ("n256", 26, 0xc53a6d79a3183224, 5449242),
    ("n256", 27, 0xf08ad7f004e4a25b, 5587619),
    ("n256", 28, 0x7b4939313526391d, 5716843),
    ("n256", 29, 0x0edb89de262572da, 5588063),
    ("n256", 30, 0xd1c4bf0e5d5affc4, 5582120),
    ("n256", 31, 0xeb7d30c0e9270d1e, 5590834),
    ("n256", 90001, 0xa325b6116d2b6368, 5579434),
    ("search", 0, 0xf6b665e3f2eb86af, 5623),
    ("search", 1, 0x0d5d946cca1988c4, 5481),
    ("search", 2, 0xd31c88e04dc66c91, 5686),
    ("search", 3, 0xe413ae79f76fe6be, 5315),
    ("search", 4, 0x0319c8c23e8d082d, 5465),
    ("search", 5, 0x7d3fef637f2cb546, 5620),
    ("search", 6, 0x8369f0cd2b2a8b5f, 5536),
    ("search", 7, 0xdac7b1ed67a7179a, 5713),
    ("search", 8, 0xad5e6ed8c609d549, 5865),
    ("search", 9, 0xee0cc1e44480f0dd, 5498),
    ("search", 10, 0x3842bed9e24ca1c8, 5678),
    ("search", 11, 0x1dccc78ce88c1a16, 5882),
    ("search", 12, 0x281fa60faef97bb6, 5534),
    ("search", 13, 0x4a3c5f87e7b76579, 5238),
    ("search", 14, 0xa6e0119128786c33, 5406),
    ("search", 15, 0xe218db11d4e68b90, 5497),
    ("search", 16, 0x332778134c491a05, 5412),
    ("search", 17, 0x0231d8c74834859b, 5393),
    ("search", 18, 0x00ed46b91382085a, 5506),
    ("search", 19, 0x2cc98ca0be0165ab, 5576),
    ("search", 20, 0xa623b0a49c509c06, 5616),
    ("search", 21, 0xde578f94b4320ec2, 5793),
    ("search", 22, 0x99b8660211d67224, 5535),
    ("search", 23, 0x7a49e5cf441fcd0d, 5362),
    ("search", 24, 0x299f5c5115423294, 5456),
    ("search", 25, 0xa4b9869560723d94, 5351),
    ("search", 26, 0xa665813e638c43f9, 5734),
    ("search", 27, 0x41ef9df787594630, 5537),
    ("search", 28, 0x09b63ca21355b996, 5722),
    ("search", 29, 0x7eb2d3435260be01, 5301),
    ("search", 30, 0xc1a06263d273ded4, 5592),
    ("search", 31, 0x7e42c6b2a1e829bb, 5819),
    ("search", 90001, 0x7b5bf14895ba884b, 5597),
];

/// The pinned `(digest, count)` of `workload` at `seed`, if one is pinned.
pub fn lookup(workload: Workload, seed: u64) -> Option<(u64, u64)> {
    PINS.iter()
        .find(|&&(w, s, _, _)| w == workload.name() && s == seed)
        .map(|&(_, _, d, c)| (d, c))
}
