//! The one table of base methods: which method to build, under which
//! name, with which state budget. The `igq` CLI and the `reproduce`
//! figures both build their base methods through [`MethodKind::build`].

use crate::{
    CtIndex, CtIndexConfig, GCode, GCodeConfig, Ggsx, GgsxConfig, Grapes, GrapesConfig,
    SubgraphMethod,
};
use igq_graph::GraphStore;
use igq_iso::MatchConfig;
use std::str::FromStr;
use std::sync::Arc;

/// Which base method to wrap — the paper's four method columns plus gCode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// GraphGrepSX.
    Ggsx,
    /// Grapes with 1 thread.
    Grapes1,
    /// Grapes with `threads` threads (6 in the paper).
    GrapesN,
    /// CT-Index.
    CtIndex,
    /// gCode-style vertex-signature method (extension; \[53\] in the
    /// paper's related work, not part of the paper's own lineup).
    GCode,
}

impl MethodKind {
    /// The paper's lineup, in the figures' method order.
    pub const PAPER: &'static [MethodKind] = MethodKind::EXTENDED.split_at(4).0;

    /// The paper lineup plus the extension method this library adds.
    pub const EXTENDED: [MethodKind; 5] = [
        MethodKind::Ggsx,
        MethodKind::Grapes1,
        MethodKind::GrapesN,
        MethodKind::CtIndex,
        MethodKind::GCode,
    ];

    /// Display name; `threads` is Grapes(k)'s `k`.
    pub fn name(self, threads: usize) -> String {
        match self {
            MethodKind::Ggsx => "GGSX".to_owned(),
            MethodKind::Grapes1 => "Grapes".to_owned(),
            MethodKind::GrapesN => format!("Grapes({threads})"),
            MethodKind::CtIndex => "CT-Index".to_owned(),
            MethodKind::GCode => "gCode".to_owned(),
        }
    }

    /// Builds the method over `store`; `threads` is Grapes(k)'s `k`. A
    /// generous state budget guards against pathological iso tests
    /// without affecting realistic ones.
    pub fn build(self, store: &Arc<GraphStore>, threads: usize) -> Box<dyn SubgraphMethod> {
        macro_rules! budgeted {
            ($method:ident, $config:ident { $($field:ident: $value:expr),* }) => {
                Box::new($method::build(store, $config {
                    $($field: $value,)*
                    match_config: MatchConfig::with_budget(200_000_000),
                    ..Default::default()
                }))
            };
        }
        match self {
            MethodKind::Ggsx => budgeted!(Ggsx, GgsxConfig {}),
            MethodKind::Grapes1 => budgeted!(Grapes, GrapesConfig { threads: 1 }),
            MethodKind::GrapesN => budgeted!(Grapes, GrapesConfig { threads: threads }),
            MethodKind::CtIndex => budgeted!(CtIndex, CtIndexConfig {}),
            MethodKind::GCode => budgeted!(GCode, GCodeConfig {}),
        }
    }
}

/// Parses the command-line names `ggsx|grapes|grapes6|ctindex|gcode`;
/// `grapes6` is [`MethodKind::GrapesN`], to be built with 6 threads.
impl FromStr for MethodKind {
    type Err = String;

    fn from_str(name: &str) -> Result<MethodKind, String> {
        Ok(match name {
            "ggsx" => MethodKind::Ggsx,
            "grapes" => MethodKind::Grapes1,
            "grapes6" => MethodKind::GrapesN,
            "ctindex" => MethodKind::CtIndex,
            "gcode" => MethodKind::GCode,
            other => return Err(format!("unknown method {other:?}")),
        })
    }
}
