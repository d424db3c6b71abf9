//! The journal's on-disk contract across the merge of the single-seed
//! verbs into the batch commit path: the frame bytes did not move, only
//! batch ops are written, and journals holding the older single-seed ops
//! still recover bit-equal.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use atpm_graph::Node;
use atpm_serve::journal::{crc32, CkpSession, Journal, Record, RoundRec};
use atpm_serve::json::Json;
use atpm_serve::protocol::{CreateSessionReq, Ledger, ObserveBatchReq, ObserveReq, PolicySpec};
use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
use atpm_serve::{SessionManager, Snapshot, SnapshotStore};

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("atpm-jfmt-{tag}-{}", std::process::id()));
    scrub(&p);
    p
}

fn ckp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap().to_os_string();
    name.push(".ckp");
    path.with_file_name(name)
}

fn scrub(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(ckp_path(path));
}

fn manager() -> SessionManager {
    let store = Arc::new(SnapshotStore::new());
    store.insert(
        Snapshot::build(&SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 5,
            rr_theta: 5_000,
            seed: 1,
            threads: 1,
        })
        .unwrap(),
    );
    SessionManager::new(store)
}

fn session_req(world_seed: u64) -> CreateSessionReq {
    CreateSessionReq {
        snapshot: "g".into(),
        policy: PolicySpec::DeployAll,
        world_seed,
    }
}

/// Drives `token` to completion over the single-seed verbs, observing by
/// simulation; returns the final ledger.
fn drive_to_completion(m: &SessionManager, token: &str) -> Ledger {
    loop {
        let batch = m.next(token).unwrap();
        if batch.done {
            return m.ledger(token).unwrap();
        }
        let seed = batch.seeds[0];
        m.observe(token, &ObserveReq::Simulate { seed }).unwrap();
    }
}

/// The uninterrupted, journal-free run of a session on `world_seed`.
fn reference(world_seed: u64) -> Ledger {
    let m = manager();
    let (token, _, _) = m.create(&session_req(world_seed)).unwrap();
    drive_to_completion(&m, &token)
}

/// Finishes the recovered `token` on `m` and checks it against the
/// uninterrupted `reference` run: same seeds, bit-equal profit, same
/// round count.
fn assert_finishes_bit_equal(m: &SessionManager, token: &str, reference: &Ledger) {
    let recovered = drive_to_completion(m, token);
    assert_eq!(recovered.selected, reference.selected);
    assert_eq!(recovered.profit.to_bits(), reference.profit.to_bits());
    assert_eq!(recovered.rounds, reference.rounds);
}

/// Hex of the bytes one fixed journal frame and one fixed checkpoint
/// encoded to before the journal and checkpoint framing were folded into
/// one codec. A mismatch means the on-disk format moved.
const GOLDEN_JNL: &str = concat!(
    "4154504d4a4e4c3241000000ec126a1a01000000000000007b22646f6e65223a",
    "66616c73652c226b223a322c226f70223a226e6578745f6261746368222c2273",
    "65656473223a5b332c385d2c22746f6b656e223a227331227d",
);
const GOLDEN_CKP: &str = concat!(
    "4154504d434b503136000000d3e4a9ff7b226d61785f736571223a312c226e65",
    "78745f6964223a352c226f70223a22636b702d68656164222c2273657373696f",
    "6e73223a317ddc000000bbee260e7b22646f6e65223a66616c73652c22696422",
    "3a312c226c6173745f736571223a312c226f70223a22636b702d73657373696f",
    "6e222c2270656e64696e67223a5b332c385d2c2270656e64696e675f6b223a32",
    "2c22726571223a7b22706f6c696379223a7b226e616d65223a226465706c6f79",
    "5f616c6c227d2c22736e617073686f74223a2267222c22776f726c645f736565",
    "64223a377d2c22726f756e6473223a5b7b226b223a312c22726571223a7b2273",
    "65656473223a5b345d2c2273696d756c617465223a747275657d7d5d2c22746f",
    "6b656e223a227331227d",
);

#[test]
fn journal_and_checkpoint_bytes_match_the_golden_encoding() {
    let path = temp_path("golden");
    let (journal, _) = Journal::open(&path).unwrap();
    journal
        .append(&Record::NextBatch {
            token: "s1".into(),
            seeds: vec![3, 8],
            k: 2,
            done: false,
        })
        .unwrap();
    let session = CkpSession {
        token: "s1".into(),
        id: 1,
        req: session_req(7),
        rounds: vec![RoundRec {
            k: 1,
            req: ObserveBatchReq::Simulate { seeds: vec![4] },
        }],
        pending: vec![3, 8],
        pending_k: 2,
        done: false,
        last_seq: 1,
    };
    journal.write_checkpoint(5, &[session]).unwrap();
    drop(journal);
    let hex = |bytes: Vec<u8>| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
    assert_eq!(hex(std::fs::read(&path).unwrap()), GOLDEN_JNL);
    assert_eq!(hex(std::fs::read(ckp_path(&path)).unwrap()), GOLDEN_CKP);
    scrub(&path);
}

#[test]
fn pre_merge_single_seed_ops_decode_as_batch_records() {
    let next = Json::parse(r#"{"done":false,"op":"next","seeds":[17],"token":"s1"}"#);
    assert_eq!(
        Record::from_json(&next.unwrap()).unwrap(),
        Record::NextBatch {
            token: "s1".into(),
            seeds: vec![17],
            k: 1,
            done: false,
        }
    );
    let observe =
        Json::parse(r#"{"op":"observe","req":{"activated":[17,4],"seed":17},"token":"s1"}"#);
    assert_eq!(
        Record::from_json(&observe.unwrap()).unwrap(),
        Record::ObserveBatch {
            token: "s1".into(),
            req: ObserveBatchReq::Report {
                seeds: vec![17],
                activated: vec![17, 4],
            },
        }
    );
}

#[test]
fn single_seed_verbs_journal_only_batch_ops_and_recover_bit_equal() {
    let path = temp_path("alias-ops");
    let reference = reference(19);
    let token = {
        let m = manager();
        let (journal, _) = Journal::open(&path).unwrap();
        m.attach_journal(Arc::new(journal));
        let (token, _, _) = m.create(&session_req(19)).unwrap();
        for _ in 0..3 {
            let seed = m.next(&token).unwrap().seeds[0];
            m.observe(&token, &ObserveReq::Simulate { seed }).unwrap();
        }
        m.next(&token).unwrap();
        token
    };
    let on_disk = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).into_owned();
    let ops = |op: &str| on_disk.matches(&format!("\"op\":\"{op}\"")).count();
    assert_eq!((ops("next"), ops("observe")), (0, 0), "no single-seed ops");
    assert_eq!((ops("next_batch"), ops("observe_batch")), (4, 3));

    let m = manager();
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(m.recover(&records), 1);
    m.attach_journal(Arc::new(journal));
    assert_finishes_bit_equal(&m, &token, &reference);
    scrub(&path);
}

#[test]
fn journals_with_pre_merge_single_seed_ops_still_recover_bit_equal() {
    let path = temp_path("legacy-ops");
    let reference = reference(23);
    // Hand-write an ATPMJNL2 segment the way builds before the verbs
    // merged journaled the single-seed routes: `next`/`observe` ops, two
    // observed rounds and a pending third seed.
    let token = "s00000001";
    let mut payloads = vec![Record::Create {
        id: 1,
        token: token.into(),
        req: session_req(23),
    }
    .to_json()];
    let next = |seed: Node| {
        Json::obj([
            ("op", Json::Str("next".into())),
            ("token", Json::Str(token.into())),
            ("seeds", Json::nums([seed])),
            ("done", Json::Bool(false)),
        ])
    };
    for &seed in &reference.selected[..2] {
        payloads.push(next(seed));
        payloads.push(Json::obj([
            ("op", Json::Str("observe".into())),
            ("token", Json::Str(token.into())),
            ("req", ObserveReq::Simulate { seed }.to_json()),
        ]));
    }
    payloads.push(next(reference.selected[2]));
    let mut bytes = b"ATPMJNL2".to_vec();
    for (seq, payload) in (1u64..).zip(&payloads) {
        let payload = payload.encode();
        let mut body = seq.to_le_bytes().to_vec();
        body.extend_from_slice(payload.as_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
    }
    std::fs::write(&path, &bytes).unwrap();

    let m = manager();
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), payloads.len(), "every legacy op decodes");
    assert_eq!(m.recover(&records), 1);
    m.attach_journal(Arc::new(journal));
    // The client's retried `next` gets the exact pending seed back.
    assert_eq!(m.next(token).unwrap().seeds, vec![reference.selected[2]]);
    assert_finishes_bit_equal(&m, token, &reference);
    scrub(&path);
}
