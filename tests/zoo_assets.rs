//! Pins the zoo's addresses: the architecture names spec files use, and the
//! cache keys under which the default-seed preset models are committed in
//! `assets/`. A renamed key or a lost asset would otherwise go unseen until
//! a preset silently retrained its network.

use std::path::PathBuf;

use ftclip_bench::WorkloadSpec;
use ftclipact::models::ZooArch;

/// Every variant. The match has no wildcard arm, so adding a variant stops
/// this file compiling until the variant is listed here.
fn all_archs() -> [ZooArch; 5] {
    let _exhaustive = |arch: ZooArch| match arch {
        ZooArch::AlexNet | ZooArch::AlexNetLeaky | ZooArch::Vgg16 | ZooArch::Vgg16Bn | ZooArch::LeNet5 => (),
    };
    [ZooArch::AlexNet, ZooArch::AlexNetLeaky, ZooArch::Vgg16, ZooArch::Vgg16Bn, ZooArch::LeNet5]
}

/// The models the presets load at the default seed, by committed file stem.
const COMMITTED: [(ZooArch, &str); 3] = [
    (ZooArch::AlexNet, "alexnet-w0.1250-c10-s42-e10-b64-lr0.0300-a1"),
    (ZooArch::AlexNetLeaky, "alexnet-leaky-w0.1250-c10-s42-e10-b64-lr0.0300-a1"),
    (ZooArch::Vgg16Bn, "vgg16bn-w0.1250-c10-s42-e12-b64-lr0.0500-a1"),
];

#[test]
fn every_arch_name_round_trips_and_the_unknown_arch_message_lists_them_all() {
    let mut names = Vec::new();
    for arch in all_archs() {
        let name = arch.to_string();
        assert_eq!(name.parse::<ZooArch>(), Ok(arch), "{name}");
        names.push(name);
    }
    let msg = "resnet".parse::<ZooArch>().unwrap_err();
    let listed = msg
        .split_once("(expected ")
        .and_then(|(_, rest)| rest.strip_suffix(')'))
        .unwrap_or_else(|| panic!("no '(expected …)' list in {msg:?}"));
    let mut listed: Vec<String> = listed.split('|').map(str::to_string).collect();
    listed.sort();
    names.sort();
    assert_eq!(listed, names, "{msg}");
}

#[test]
fn default_seed_cache_keys_are_the_committed_file_stems() {
    for (arch, stem) in COMMITTED {
        assert_eq!(WorkloadSpec::default_for(arch).model_spec(42).cache_key(), stem, "{arch}");
    }
}

#[test]
fn every_pinned_model_is_committed() {
    let assets = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("assets");
    for (_, stem) in COMMITTED {
        let path = assets.join(format!("{stem}.ftcw"));
        assert!(path.is_file(), "{} is missing; a preset would retrain it", path.display());
    }
}
