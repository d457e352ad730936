//! Repro files: a hand-rolled reader/writer for a RON-style text format.
//!
//! A violation is persisted as `chaos-repro-<seed>.ron` holding the
//! minimized [`ChaosPlan`] plus the violation kind it reproduces. The
//! format is the Rusty Object Notation subset needed for plans — named
//! structs, field maps, lists, `Some`/`None`, strings, integers, floats
//! and booleans — implemented by hand because the container image
//! carries no serde/ron dependency (and the plan structure is small and
//! stable enough that a bespoke parser is the simpler contract).

use std::fmt::Write as _;

use crate::executor::ViolationKind;
use crate::plan::{
    ByzBehavior, ByzPlan, ChaosPlan, CrashPlan, ExportPlan, NetPlan, OpPlan, PartitionPlan,
    PrepareLossPlan,
};

/// Current repro file format version.
pub const REPRO_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn behavior_str(b: ByzBehavior) -> &'static str {
    match b {
        ByzBehavior::Silent => "silent",
        ByzBehavior::EquivocatePreprepares => "equivocate-preprepares",
        ByzBehavior::FabricateBus => "fabricate-bus",
        ByzBehavior::EquivocateBatch => "equivocate-batch",
    }
}

/// The error for a repro file written while the removed collector vote
/// path existed and that depends on it.
fn removed_collector(what: &str) -> String {
    format!("{what} needs the removed `collector` comm mode; all-to-all is the only vote path")
}

/// The error for a repro file written while the removed MAC
/// authenticator mode existed and that depends on it.
fn removed_mac(what: &str) -> String {
    format!(
        "{what} needs the removed `mac-with-sig-fallback` auth mode; \
         every message carries one signature"
    )
}

fn parse_behavior(s: &str) -> Result<ByzBehavior, String> {
    Ok(match s {
        "silent" => ByzBehavior::Silent,
        "equivocate-preprepares" => ByzBehavior::EquivocatePreprepares,
        "fabricate-bus" => ByzBehavior::FabricateBus,
        "equivocate-batch" => ByzBehavior::EquivocateBatch,
        "forge-cert" | "collector-silent" => {
            return Err(removed_collector(&format!("behavior `{s}`")))
        }
        "forge-mac" => return Err(removed_mac(&format!("behavior `{s}`"))),
        _ => return Err(format!("unknown behavior `{s}`")),
    })
}

/// Renders a repro file for `plan`, which reproduces `kind`.
pub fn write_repro(plan: &ChaosPlan, kind: ViolationKind) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ChaosRepro(");
    let _ = writeln!(out, "    version: {REPRO_VERSION},");
    let _ = writeln!(out, "    violation: \"{}\",", kind.as_str());
    let _ = writeln!(out, "    plan: (");
    let _ = writeln!(out, "        seed: {},", plan.seed);
    let _ = writeln!(out, "        n_nodes: {},", plan.n_nodes);
    let _ = writeln!(out, "        block_size: {},", plan.block_size);
    let _ = writeln!(out, "        max_batch_size: {},", plan.max_batch_size);
    let _ = writeln!(out, "        batch_delay_ms: {},", plan.batch_delay_ms);
    let _ = writeln!(out, "        mutation: {},", plan.mutation);
    let _ = writeln!(out, "        ops: [");
    for op in &plan.ops {
        let _ = writeln!(out, "            (at_ms: {}, size: {}),", op.at_ms, op.size);
    }
    let _ = writeln!(out, "        ],");
    let _ = writeln!(out, "        crashes: [");
    for c in &plan.crashes {
        let recover = match c.recover_at_ms {
            Some(ms) => format!("Some({ms})"),
            None => "None".to_string(),
        };
        let _ = writeln!(
            out,
            "            (node: {}, at_ms: {}, recover_at_ms: {recover}, truncate_blocks: {}, drop_proofs: {}),",
            c.node, c.at_ms, c.truncate_blocks, c.drop_proofs
        );
    }
    let _ = writeln!(out, "        ],");
    match &plan.partition {
        Some(p) => {
            let island: Vec<String> = p.island.iter().map(|i| i.to_string()).collect();
            let _ = writeln!(
                out,
                "        partition: Some((island: [{}], start_ms: {}, heal_ms: {})),",
                island.join(", "),
                p.start_ms,
                p.heal_ms
            );
        }
        None => {
            let _ = writeln!(out, "        partition: None,");
        }
    }
    match &plan.prepare_loss {
        Some(pl) => {
            let _ = writeln!(
                out,
                "        prepare_loss: Some((node: {}, start_ms: {}, end_ms: {})),",
                pl.node, pl.start_ms, pl.end_ms
            );
        }
        None => {
            let _ = writeln!(out, "        prepare_loss: None,");
        }
    }
    let _ = writeln!(out, "        byzantine: [");
    for b in &plan.byzantine {
        let _ = writeln!(
            out,
            "            (node: {}, behavior: \"{}\"),",
            b.node,
            behavior_str(b.behavior)
        );
    }
    let _ = writeln!(out, "        ],");
    let _ = writeln!(out, "        exports: [");
    for e in &plan.exports {
        let _ = writeln!(
            out,
            "            (at_ms: {}, dc: {}, blocks_from: {}),",
            e.at_ms, e.dc, e.blocks_from
        );
    }
    let _ = writeln!(out, "        ],");
    let _ = writeln!(
        out,
        "        net: (min_latency_us: {}, max_latency_us: {}, retransmit_probability: {:?}, retransmit_delay_ms: {}, duplicate_probability: {:?}),",
        plan.net.min_latency_us,
        plan.net.max_latency_us,
        plan.net.retransmit_probability,
        plan.net.retransmit_delay_ms,
        plan.net.duplicate_probability
    );
    let _ = writeln!(out, "    ),");
    let _ = writeln!(out, ")");
    out
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// A parsed RON value (the subset repro files use).
#[derive(Debug, Clone, PartialEq)]
enum Value {
    UInt(u64),
    Float(f64),
    Bool(bool),
    Str(String),
    List(Vec<Value>),
    /// A `( field: value, ... )` body, named or anonymous.
    Map(Vec<(String, Value)>),
    Opt(Option<Box<Value>>),
}

impl Value {
    fn as_u64(&self, what: &str) -> Result<u64, String> {
        match self {
            Value::UInt(v) => Ok(*v),
            other => Err(format!("{what}: expected integer, got {other:?}")),
        }
    }
    fn as_f64(&self, what: &str) -> Result<f64, String> {
        match self {
            Value::Float(v) => Ok(*v),
            Value::UInt(v) => Ok(*v as f64),
            other => Err(format!("{what}: expected float, got {other:?}")),
        }
    }
    fn as_bool(&self, what: &str) -> Result<bool, String> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(format!("{what}: expected bool, got {other:?}")),
        }
    }
    fn as_str(&self, what: &str) -> Result<&str, String> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(format!("{what}: expected string, got {other:?}")),
        }
    }
    fn as_list(&self, what: &str) -> Result<&[Value], String> {
        match self {
            Value::List(v) => Ok(v),
            other => Err(format!("{what}: expected list, got {other:?}")),
        }
    }
    fn field<'a>(&'a self, name: &str) -> Result<&'a Value, String> {
        match self {
            Value::Map(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("missing field `{name}`")),
            other => Err(format!(
                "expected struct with field `{name}`, got {other:?}"
            )),
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Self {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.src.get(self.pos) {
            if b.is_ascii_whitespace() {
                self.pos += 1;
            } else if b == b'/' && self.src.get(self.pos + 1) == Some(&b'/') {
                while self.src.get(self.pos).is_some_and(|&b| b != b'\n') {
                    self.pos += 1;
                }
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!(
                "expected `{}` at byte {}, got {:?}",
                b as char,
                self.pos,
                got.map(|g| g as char)
            )),
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .src
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected identifier at byte {start}"));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'(') => self.map_body(),
            Some(b'[') => {
                self.expect(b'[')?;
                let mut items = Vec::new();
                loop {
                    if self.eat(b']') {
                        break;
                    }
                    items.push(self.value()?);
                    if !self.eat(b',') {
                        self.expect(b']')?;
                        break;
                    }
                }
                Ok(Value::List(items))
            }
            Some(b'"') => {
                self.expect(b'"')?;
                let start = self.pos;
                while self.src.get(self.pos).is_some_and(|&b| b != b'"') {
                    self.pos += 1;
                }
                let s = String::from_utf8_lossy(&self.src[start..self.pos]).into_owned();
                self.expect(b'"')?;
                Ok(Value::Str(s))
            }
            Some(b) if b.is_ascii_digit() => self.number(),
            Some(_) => {
                let name = self.ident()?;
                match name.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "None" => Ok(Value::Opt(None)),
                    "Some" => {
                        self.expect(b'(')?;
                        let inner = self.value()?;
                        self.expect(b')')?;
                        Ok(Value::Opt(Some(Box::new(inner))))
                    }
                    // A named struct: the name is decorative.
                    _ => self.map_body(),
                }
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn map_body(&mut self) -> Result<Value, String> {
        self.expect(b'(')?;
        let mut fields = Vec::new();
        loop {
            if self.eat(b')') {
                break;
            }
            let key = self.ident()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            if !self.eat(b',') {
                self.expect(b')')?;
                break;
            }
        }
        Ok(Value::Map(fields))
    }

    fn number(&mut self) -> Result<Value, String> {
        self.skip_ws();
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.src.get(self.pos) {
            if b.is_ascii_digit() {
                self.pos += 1;
            } else if (b == b'.' || b == b'e' || b == b'E' || b == b'-' || b == b'+')
                && self.pos > start
            {
                float = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        if float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad float `{text}`: {e}"))
        } else {
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|e| format!("bad integer `{text}`: {e}"))
        }
    }
}

fn plan_from_value(value: &Value) -> Result<ChaosPlan, String> {
    let ops = value
        .field("ops")?
        .as_list("ops")?
        .iter()
        .map(|op| {
            Ok(OpPlan {
                at_ms: op.field("at_ms")?.as_u64("op.at_ms")?,
                size: op.field("size")?.as_u64("op.size")? as usize,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let crashes = value
        .field("crashes")?
        .as_list("crashes")?
        .iter()
        .map(|c| {
            let recover_at_ms = match c.field("recover_at_ms")? {
                Value::Opt(None) => None,
                Value::Opt(Some(inner)) => Some(inner.as_u64("recover_at_ms")?),
                other => return Err(format!("recover_at_ms: expected option, got {other:?}")),
            };
            Ok(CrashPlan {
                node: c.field("node")?.as_u64("crash.node")? as usize,
                at_ms: c.field("at_ms")?.as_u64("crash.at_ms")?,
                recover_at_ms,
                truncate_blocks: c.field("truncate_blocks")?.as_u64("truncate_blocks")? as usize,
                drop_proofs: c.field("drop_proofs")?.as_bool("drop_proofs")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let partition = match value.field("partition")? {
        Value::Opt(None) => None,
        Value::Opt(Some(p)) => Some(PartitionPlan {
            island: p
                .field("island")?
                .as_list("island")?
                .iter()
                .map(|i| i.as_u64("island member").map(|v| v as usize))
                .collect::<Result<Vec<_>, String>>()?,
            start_ms: p.field("start_ms")?.as_u64("start_ms")?,
            heal_ms: p.field("heal_ms")?.as_u64("heal_ms")?,
        }),
        other => return Err(format!("partition: expected option, got {other:?}")),
    };
    let prepare_loss = match value.field("prepare_loss")? {
        Value::Opt(None) => None,
        Value::Opt(Some(pl)) => Some(PrepareLossPlan {
            node: pl.field("node")?.as_u64("prepare_loss.node")? as usize,
            start_ms: pl.field("start_ms")?.as_u64("prepare_loss.start_ms")?,
            end_ms: pl.field("end_ms")?.as_u64("prepare_loss.end_ms")?,
        }),
        other => return Err(format!("prepare_loss: expected option, got {other:?}")),
    };
    let byzantine = value
        .field("byzantine")?
        .as_list("byzantine")?
        .iter()
        .map(|b| {
            let behavior = b.field("behavior")?.as_str("behavior")?;
            Ok(ByzPlan {
                node: b.field("node")?.as_u64("byz.node")? as usize,
                behavior: parse_behavior(behavior)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let exports = value
        .field("exports")?
        .as_list("exports")?
        .iter()
        .map(|e| {
            Ok(ExportPlan {
                at_ms: e.field("at_ms")?.as_u64("export.at_ms")?,
                dc: e.field("dc")?.as_u64("export.dc")? as usize,
                blocks_from: e.field("blocks_from")?.as_u64("blocks_from")? as usize,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let net = value.field("net")?;
    // Files written while the MAC authenticator existed name the auth
    // mode; only the signature mode they share with today replays.
    if let Ok(v) = value.field("auth_mode") {
        match v.as_str("auth_mode")? {
            "sig" => {}
            "mac-with-sig-fallback" => {
                return Err(removed_mac("auth mode `mac-with-sig-fallback`"))
            }
            s => return Err(format!("unknown auth mode `{s}`")),
        }
    }
    // Files written while the collector vote path existed name the comm
    // mode; only the all-to-all exchange they share with today replays.
    if let Ok(v) = value.field("comm_mode") {
        match v.as_str("comm_mode")? {
            "all-to-all" => {}
            "collector" => return Err(removed_collector("comm mode `collector`")),
            s => return Err(format!("unknown comm mode `{s}`")),
        }
    }
    Ok(ChaosPlan {
        seed: value.field("seed")?.as_u64("seed")?,
        n_nodes: value.field("n_nodes")?.as_u64("n_nodes")? as usize,
        block_size: value.field("block_size")?.as_u64("block_size")? as usize,
        max_batch_size: value.field("max_batch_size")?.as_u64("max_batch_size")? as usize,
        batch_delay_ms: value.field("batch_delay_ms")?.as_u64("batch_delay_ms")?,
        ops,
        crashes,
        partition,
        prepare_loss,
        byzantine,
        exports,
        net: NetPlan {
            min_latency_us: net.field("min_latency_us")?.as_u64("min_latency_us")?,
            max_latency_us: net.field("max_latency_us")?.as_u64("max_latency_us")?,
            retransmit_probability: net
                .field("retransmit_probability")?
                .as_f64("retransmit_probability")?,
            retransmit_delay_ms: net
                .field("retransmit_delay_ms")?
                .as_u64("retransmit_delay_ms")?,
            duplicate_probability: net
                .field("duplicate_probability")?
                .as_f64("duplicate_probability")?,
        },
        mutation: value.field("mutation")?.as_bool("mutation")?,
    })
}

/// Parses a repro file back into its plan and expected violation kind.
pub fn parse_repro(text: &str) -> Result<(ChaosPlan, ViolationKind), String> {
    let mut parser = Parser::new(text);
    let root = parser.value()?;
    let version = root.field("version")?.as_u64("version")?;
    if version != REPRO_VERSION {
        return Err(format!(
            "unsupported repro version {version} (supported: {REPRO_VERSION})"
        ));
    }
    let kind_str = root.field("violation")?.as_str("violation")?;
    let kind = ViolationKind::parse(kind_str)
        .ok_or_else(|| format!("unknown violation kind `{kind_str}`"))?;
    let plan = plan_from_value(root.field("plan")?)?;
    Ok((plan, kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_plans_roundtrip() {
        for seed in 0..100 {
            let plan = ChaosPlan::generate(seed);
            let text = write_repro(&plan, ViolationKind::DecideConflict);
            let (parsed, kind) = parse_repro(&text).expect("roundtrip parse");
            assert_eq!(kind, ViolationKind::DecideConflict);
            assert_eq!(parsed, plan, "seed {seed}");
        }
    }

    #[test]
    fn mutation_and_every_kind_roundtrip() {
        let plan = ChaosPlan::generate(3).with_mutation();
        for kind in [
            ViolationKind::DecideConflict,
            ViolationKind::BlockFork,
            ViolationKind::ChainInvalid,
            ViolationKind::Equivocation,
            ViolationKind::ExportMismatch,
            ViolationKind::ArchiveAudit,
            ViolationKind::LivenessLoss,
            ViolationKind::ViewBound,
        ] {
            let text = write_repro(&plan, kind);
            let (parsed, parsed_kind) = parse_repro(&text).expect("roundtrip parse");
            assert_eq!(parsed_kind, kind);
            assert_eq!(parsed, plan);
            assert!(parsed.mutation);
        }
    }

    #[test]
    fn rejects_bad_version_and_garbage() {
        let plan = ChaosPlan::generate(1);
        let text = write_repro(&plan, ViolationKind::BlockFork).replace("version: 1", "version: 9");
        assert!(parse_repro(&text).is_err());
        assert!(parse_repro("not a repro at all").is_err());
        assert!(parse_repro("ChaosRepro(version: 1,)").is_err());
    }

    /// A repro file as an older writer produced it: the plan's lines
    /// plus `field: "value"`, a field today's writer no longer emits.
    fn with_removed_field(plan: &ChaosPlan, field: &str, value: &str) -> String {
        let text = write_repro(plan, ViolationKind::BlockFork);
        let anchor = text
            .lines()
            .find(|line| line.trim_start().starts_with("batch_delay_ms:"))
            .expect("repro files carry the batch delay")
            .to_string();
        text.replace(&anchor, &format!("{anchor}\n        {field}: \"{value}\","))
    }

    #[test]
    fn repro_files_no_longer_carry_a_comm_mode() {
        let text = write_repro(&ChaosPlan::generate(1), ViolationKind::BlockFork);
        assert!(!text.contains("comm_mode"), "{text}");
    }

    #[test]
    fn all_to_all_repro_files_still_parse() {
        let plan = ChaosPlan::generate(1);
        let (parsed, _) = parse_repro(&with_removed_field(&plan, "comm_mode", "all-to-all"))
            .expect("all-to-all replays");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn collector_repro_files_are_rejected_by_name() {
        let old = with_removed_field(&ChaosPlan::generate(1), "comm_mode", "collector");
        let err = parse_repro(&old).expect_err("collector mode is gone");
        assert!(err.contains("removed `collector` comm mode"), "{err}");
        assert!(err.contains("comm mode `collector`"), "{err}");

        let mut plan = ChaosPlan::generate(1);
        plan.byzantine = vec![ByzPlan {
            node: 1,
            behavior: ByzBehavior::Silent,
        }];
        let text = write_repro(&plan, ViolationKind::BlockFork);
        for behavior in ["forge-cert", "collector-silent"] {
            let old = text.replace("\"silent\"", &format!("\"{behavior}\""));
            let err = parse_repro(&old).expect_err("collector behaviours are gone");
            assert!(err.contains(&format!("behavior `{behavior}`")), "{err}");
            assert!(err.contains("removed `collector` comm mode"), "{err}");
        }
    }

    #[test]
    fn sig_repro_files_still_parse() {
        let plan = ChaosPlan::generate(1);
        let text = write_repro(&plan, ViolationKind::BlockFork);
        assert!(!text.contains("auth_mode"), "{text}");
        let (parsed, _) = parse_repro(&text).expect("no auth mode replays");
        assert_eq!(parsed, plan);
        let (parsed, _) =
            parse_repro(&with_removed_field(&plan, "auth_mode", "sig")).expect("sig mode replays");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn mac_repro_files_are_rejected_by_name() {
        let old = with_removed_field(
            &ChaosPlan::generate(1),
            "auth_mode",
            "mac-with-sig-fallback",
        );
        let err = parse_repro(&old).expect_err("MAC mode is gone");
        assert!(err.contains("auth mode `mac-with-sig-fallback`"), "{err}");
        assert!(
            err.contains("removed `mac-with-sig-fallback` auth mode"),
            "{err}"
        );

        let mut plan = ChaosPlan::generate(1);
        plan.byzantine = vec![ByzPlan {
            node: 1,
            behavior: ByzBehavior::Silent,
        }];
        let text = write_repro(&plan, ViolationKind::BlockFork);
        let old = text.replace("\"silent\"", "\"forge-mac\"");
        let err = parse_repro(&old).expect_err("MAC forging is gone");
        assert!(err.contains("behavior `forge-mac`"), "{err}");
        assert!(
            err.contains("removed `mac-with-sig-fallback` auth mode"),
            "{err}"
        );
    }
}
